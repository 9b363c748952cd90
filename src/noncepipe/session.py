"""One simulated browsing session: browser, manager, extensions, server.

Ties the layers together so scenario code can say "autofill, submit, see
what reached the wire". All randomness is drawn from named substreams of
the session seed, so two sessions built from the same seed replay each
other exactly.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .dom import Page, build_request, submit_form
from .extensions import ExtensionHost
from .fido2 import BEGIN_PATH, FINISH_FIELD, FINISH_PATH, REGISTRATION
from .fido2 import AuthenticatorDevice, BrowserWebAuthn, SecureStore
from .http_model import ChannelSecurity, Origin, Url, WebRequestRecord, WebResponseRecord
from .manager import MANAGER_EXTENSION_ID, PasswordManager
from .pipeline import (
    EVENT_FIDO2_INJECT,
    EVENT_FIDO2_STRIP,
    Cancelled,
    DefenseMode,
    PipelineConfig,
    StageTranscript,
    VaultEntry,
    dispatch,
    process_response,
)
from .rng import substream

__all__ = ["BrowserSession", "FlowResult"]

ServeFn = Callable[[WebRequestRecord], tuple[WebResponseRecord, str]]


class FlowResult(NamedTuple):
    """Everything one submission produced, wire level and page level."""

    request: WebRequestRecord
    wire: Optional[WebRequestRecord]
    response: Optional[WebResponseRecord]
    verdict: Optional[str]
    transcript: StageTranscript
    cancelled: bool = False


class BrowserSession:
    """A browser profile plus its trusted manager and authenticator. A run keeps
    the host with the manager installed, the pipeline config, the server and
    the FIDO2 side (secure store and authenticator, drawn from the first
    seed and name); `reset` sets what a login owns, so a reset session acts
    as a new one to a password login."""

    def __init__(
        self,
        seed: int,
        defense_mode: DefenseMode,
        vault: Sequence[VaultEntry],
        server: ServeFn,
        *,
        name: str = "session",
        credential_stage_enabled: bool = True,
        pinning_enabled: bool = True,
    ) -> None:
        self.defense_mode = defense_mode
        self.server = server
        self.host = ExtensionHost()
        self.config = PipelineConfig(defense_mode, credential_stage_enabled)
        # its vault and stream belong to a login: `reset` sets them
        self.manager = PasswordManager((), None, pinning_enabled=pinning_enabled)
        self.manager.register_with(self.host, defense_mode)
        self.secure_store = SecureStore(substream(seed, name, "browser.dummies"))
        self.device = AuthenticatorDevice("user-device", substream(seed, name, "device"))
        self.reset(seed, vault, name=name)

    def reset(self, seed: int, vault: Sequence[VaultEntry], *, name: str = "session") -> None:
        """Start a login: its streams drawn from (seed, name), its vault, and
        no nonce, page, request id, parked FIDO2 payload or extension but the
        manager before it. Page ids restart, so a payload parked for an old
        `page-1` must not reach a new one; the authenticator keeps its keys."""
        if len(self.host.extensions) > 1:  # an attacker's, as well as the manager
            for extension_id in [e for e in self.host.extensions if e != MANAGER_EXTENSION_ID]:
                self.host.uninstall(extension_id)
        self.host.nonces.clear()
        self.manager.vault = list(vault)
        self.manager.rng = substream(seed, name, "manager")
        self.secure_store.clear()
        self._page_count = 0  # pages are not kept: ids only need the count
        self._next_request_id = 0

    # -- pages -------------------------------------------------------------

    def new_page(self, origin: Origin, is_iframe: bool = False, bad_tls: bool = False) -> Page:
        """A new page, its id `page-N` unique within the session (the nonce
        store's key)."""
        self._page_count += 1
        page_id = f"page-{self._page_count}"
        page = Page(page_id, origin, is_iframe)
        if bad_tls:
            page.tls_overrides[origin] = ChannelSecurity.BAD_TLS
        page.webauthn = BrowserWebAuthn(page_id, self.secure_store, self.device)
        return page

    def autofill(self, page: Page, form_id: str):
        return self.manager.autofill(page, form_id, self.defense_mode)

    # -- network -----------------------------------------------------------

    def _allocate_request_id(self) -> int:
        self._next_request_id += 1
        return self._next_request_id

    def _run(self, request: WebRequestRecord, page: Page) -> FlowResult:
        """One flow: the request-side stages, the FIDO2 inject, the server,
        the FIDO2 strip, the response-side stages. Its transcript is kept only
        on the returned result, and the page's nonce verdict goes when the
        request leaves the pipeline."""
        transcript = StageTranscript()
        try:
            wire, transcript = dispatch(
                request,
                self.host.registry,
                self.config,
                transcript=transcript,
                nonce_store=self.host.nonces,
                id_allocator=self._allocate_request_id,
            )
        except Cancelled:
            return tuple.__new__(FlowResult, (request, None, None, None, transcript, True))
        finally:
            self.host.nonces.end_request(page.page_id)
        injected = self.secure_store.inject(wire, page.page_id)
        if injected is not None:  # after the last listener stage: no view shows it
            wire = injected
            transcript.record_event(wire.request_id, EVENT_FIDO2_INJECT)
        response, verdict = self.server(wire)
        # before the first listener stage, so no view shows a stripped header
        response, stripped = self.secure_store.strip_and_store(response, page.page_id)
        if stripped:
            transcript.record_event(response.request_id, EVENT_FIDO2_STRIP)
        response, transcript = process_response(
            response, self.host.registry, request_url=wire.url, transcript=transcript
        )
        page.rendered_text = response.body.decode("utf-8", errors="replace")
        return tuple.__new__(FlowResult, (request, wire, response, verdict, transcript, False))

    def submit(self, page: Page, form_id: str) -> FlowResult:
        request = submit_form(page, form_id, self._allocate_request_id())
        return self._run(request, page)

    def fetch(
        self,
        page: Page,
        url: Url,
        *,
        method: str = "GET",
        body_entries: Optional[Sequence[tuple[str, str]]] = None,
    ) -> FlowResult:
        request = build_request(
            page, method, url, tuple(body_entries or ()), self._allocate_request_id()
        )
        return self._run(request, page)

    # -- FIDO2 page flows -----------------------------------------------------

    def fido2_ceremony(
        self, page: Page, rp_origin: Origin, kind: str, username: str
    ) -> tuple[FlowResult, FlowResult]:
        """The honest page flow of a `kind` ceremony: begin, WebAuthn create
        (a registration) or get (a login), finish. Returns the begin and the
        finish flows."""
        origin = (rp_origin.scheme, rp_origin.host, rp_origin.port)
        query = (("kind", kind), ("username", username))
        begin = self.fetch(page, Url(*origin, BEGIN_PATH, query))
        webauthn = page.webauthn
        call = webauthn.create if kind == REGISTRATION else webauthn.get
        response_json = call(page.rendered_text)
        finish = self.fetch(
            page,
            Url(*origin, FINISH_PATH),
            method="POST",
            body_entries=((FINISH_FIELD, response_json),),
        )
        return begin, finish
