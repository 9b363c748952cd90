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
from .fido2 import REGISTRATION, AUTHENTICATION, AuthenticatorDevice, BrowserWebAuthn, SecureStore
from .http_model import ChannelSecurity, Origin, Url, WebRequestRecord, WebResponseRecord
from .manager import PasswordManager, VaultEntry
from .pipeline import (
    Cancelled,
    DefenseMode,
    PipelineConfig,
    StageTranscript,
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
    """A browser profile plus its trusted manager and authenticator."""

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
        self.seed = seed
        self.name = name
        self.defense_mode = defense_mode
        self.server = server
        self.host = ExtensionHost()
        self.config = PipelineConfig(
            defense_mode=defense_mode, credential_stage_enabled=credential_stage_enabled
        )
        self.manager = PasswordManager(
            vault, substream(seed, name, "manager"), pinning_enabled=pinning_enabled
        )
        self.manager.register_with(self.host, defense_mode)
        self.secure_store = SecureStore(substream(seed, name, "browser.dummies"))
        self.device = AuthenticatorDevice("user-device", substream(seed, name, "device"))
        self._page_count = 0  # pages are not kept: ids only need the count
        self._next_request_id = 0

    # -- pages -------------------------------------------------------------

    def new_page(self, origin: Origin, *, is_iframe: bool = False, bad_tls: bool = False) -> Page:
        """A new page, its id `page-N` unique within the session (the nonce
        store's key)."""
        self._page_count += 1
        page_id = f"page-{self._page_count}"
        page = Page(page_id=page_id, origin=origin, is_iframe=is_iframe)
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
        """One flow; its transcript is kept only on the returned result, and
        the page's nonce verdict goes when the request leaves the pipeline."""
        transcript = StageTranscript()
        try:
            wire, transcript = dispatch(
                request,
                self.host.registry,
                self.config,
                transcript=transcript,
                nonce_store=self.host.nonces,
                fido2_store=self.secure_store,
                id_allocator=self._allocate_request_id,
            )
        except Cancelled:
            return FlowResult(request, None, None, None, transcript, cancelled=True)
        finally:
            self.host.nonces.end_request(page.page_id)
        response, verdict = self.server(wire)
        response, transcript = process_response(
            response,
            self.host.registry,
            lambda resp: self.secure_store.strip_and_store(resp, page.page_id),
            request_url=wire.url,
            transcript=transcript,
        )
        page.rendered_text = response.body.decode("utf-8", errors="replace")
        return FlowResult(request, wire, response, verdict, transcript)

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

    def fido2_begin(self, page: Page, rp_origin: Origin, kind: str, username: str) -> FlowResult:
        url = Url(
            scheme=rp_origin.scheme,
            host=rp_origin.host,
            port=rp_origin.port,
            path="/webauthn/begin",
            query=(("kind", kind), ("username", username)),
        )
        return self.fetch(page, url)

    def fido2_finish(self, page: Page, finish_url: Url, response_json: str) -> FlowResult:
        return self.fetch(
            page, finish_url, method="POST", body_entries=(("webauthn", response_json),)
        )

    def fido2_register(self, page: Page, rp_origin: Origin, username: str) -> FlowResult:
        """The honest page flow: begin, WebAuthn create, finish."""
        self.fido2_begin(page, rp_origin, REGISTRATION, username)
        response_json = page.webauthn.create(page.rendered_text)
        finish_url = Url(rp_origin.scheme, rp_origin.host, rp_origin.port, "/webauthn/finish")
        return self.fido2_finish(page, finish_url, response_json)

    def fido2_authenticate(self, page: Page, rp_origin: Origin, username: str) -> FlowResult:
        self.fido2_begin(page, rp_origin, AUTHENTICATION, username)
        response_json = page.webauthn.get(page.rendered_text)
        finish_url = Url(rp_origin.scheme, rp_origin.host, rp_origin.port, "/webauthn/finish")
        return self.fido2_finish(page, finish_url, response_json)
