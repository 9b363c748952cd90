"""Password manager: vault entries, nonce autofill, and the safety gate.

Instead of autofilling the password, the manager fills a random 16-character
alphanumeric nonce and asks the browser to swap it for the real password
deep in the request pipeline, gated by the five checks of `pipeline.check`.
A refusal means the request simply goes out still carrying the nonce.
"""

from __future__ import annotations

from typing import Container, Optional, Sequence, Union

from .dom import FieldKind, Form, HookKind, Page, SubmitHook
from .extensions import ExtensionHost, ExtensionManifest, Permission
from .http_model import Origin
from .pipeline import (
    CHECK_NAMES,
    DefenseMode,
    NonceRecord,
    NonceStore,
    PinConflict,
    SafetyDecision,
    Stage,
    StageView,
    SubstitutionRequest,
    VaultEntry,
    Verdict,
    approve,
    check,
    record_for,
)
from .rng import Substream

__all__ = [
    "CHECK_NAMES",
    "MANAGER_EXTENSION_ID",
    "NONCE_ALPHABET",
    "NONCE_LENGTH",
    "NoPasswordField",
    "NonceRecord",
    "OriginMismatch",
    "PasswordManager",
    "PinConflict",
    "SafetyDecision",
    "VaultEntry",
    "generate_nonce",
]

MANAGER_EXTENSION_ID = "noncepipe.manager"
# frozen, so every manager shares it
_MANIFEST = ExtensionManifest(
    MANAGER_EXTENSION_ID, frozenset({Permission.WEB_REQUEST, Permission.SECRETS})
)

NONCE_LENGTH = 16
NONCE_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


class OriginMismatch(LookupError):
    """No vault entry exists for the page origin being filled."""


class NoPasswordField(LookupError):
    """The form has no fillable password field."""


def generate_nonce(rng: Substream, used: Container[str] = frozenset()) -> str:
    """Draw a 16-char [A-Za-z0-9] nonce, drawing again while it is in `used`.

    `used` is only tested for membership, so a caller can pass its own
    mapping or set without copying it.
    """
    while True:
        nonce = rng.string(NONCE_ALPHABET, NONCE_LENGTH)
        if nonce not in used:
            return nonce


class PasswordManager:
    """The manager extension: fills nonces and gates their replacement.

    One manager serves one browsing session. It writes every nonce's record
    to the browser's nonce store, and in the API defense modes registers two
    pipeline callbacks (validate early, substitute at the credential stage)
    that read the submitting page's records and keep their verdict there.
    """

    def __init__(
        self,
        vault: Sequence[VaultEntry],
        rng: Substream,
        *,
        pinning_enabled: bool = True,
    ) -> None:
        self.vault = list(vault)
        self.rng = rng
        self.pinning_enabled = pinning_enabled
        self.manifest = _MANIFEST
        # the browser's store, handed over at install; the manager keeps no
        # host, so a dropped session is freed without the cycle collector
        self._nonces: Optional[NonceStore] = None

    # -- vault ------------------------------------------------------------

    def entry_for(self, origin: Origin) -> Optional[VaultEntry]:
        for entry in self.vault:
            if entry.origin == origin:
                return entry
        return None

    # -- autofill ----------------------------------------------------------

    def autofill(self, page: Page, form_id: str, mode: DefenseMode) -> Optional[NonceRecord]:
        """Fill username and either the password (baseline) or a fresh nonce.

        Returns the nonce record, or None in baseline mode. Raises
        OriginMismatch when the vault has nothing for the page origin and
        NoPasswordField when there is nothing safe to fill. A nonce needs
        the manager registered with a browser, whose store keeps the record.
        """
        entry = self.entry_for(page.origin)
        if entry is None:
            raise OriginMismatch(f"no vault entry for {page.origin}")
        form = page.form(form_id)
        password_field = form.first_of_kind(FieldKind.PASSWORD)
        if password_field is None:
            raise NoPasswordField(f"form {form_id!r} has no password field")
        self._fill_username(form, entry.username)

        if mode is DefenseMode.BASELINE:
            password_field.value = entry.password
            page.audit.append(f"manager autofilled {form_id}.{password_field.name} (baseline)")
            return None

        if self._nonces is None:
            raise RuntimeError("nonce autofill needs the manager registered with a browser")
        nonce = generate_nonce(self.rng, self._nonces)
        password_field.value = nonce
        record = NonceRecord(
            nonce, entry, form_id, password_field.name, page.is_iframe, self.pinning_enabled
        )
        self._nonces.add(page, record)
        page.audit.append(f"manager autofilled {form_id}.{password_field.name} ({mode.value})")

        if mode is DefenseMode.DESIGN3_DOM:
            # replacement happens in the DOM, immediately before submission
            form.submit_hooks.append(
                SubmitHook(
                    kind=HookKind.SWAP_VALUE,
                    match=nonce,
                    replacement=entry.password,
                    guard_origin=entry.origin,
                )
            )
        return record

    def _fill_username(self, form: Form, username: str) -> None:
        named = next((f for f in form.fields if f.name == "username"), None)
        target = named or form.first_of_kind(FieldKind.TEXT)
        if target is not None:
            target.value = username

    # -- pipeline wiring ----------------------------------------------------

    def register_with(self, host: ExtensionHost, mode: DefenseMode) -> None:
        """Install the manager extension and its listeners for this mode."""
        self._nonces = host.install(self.manifest).nonces
        if mode in (DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE):
            host.register_listener(
                self.manifest.extension_id,
                Stage.ON_BEFORE_REQUEST,
                self.on_before_request,
                listener_id="manager.validate",
            )
            host.register_listener(
                self.manifest.extension_id,
                Stage.ON_REQUEST_CREDENTIALS,
                self.on_request_credentials,
                listener_id="manager.substitute",
            )

    # -- the five checks -------------------------------------------------------

    def safety_check(self, record: NonceRecord, view: StageView) -> SafetyDecision:
        """Run the five ordered checks (`pipeline.check`); one method, so that
        perfbench's tracer can count and time the checks the manager runs."""
        return check(record, view)

    # -- pipeline callbacks -------------------------------------------------------

    def _verdict(self, view: StageView) -> Optional[Verdict]:
        """The verdict on the nonce the request carries, looked up among the
        submitting page's records only: the one the page keeps for this
        request, else a new one, kept there."""
        page = self._nonces.page(view.document_id)
        if page is None:
            return None
        verdict = page.verdict
        if verdict is None or verdict.request_id != view.request_id:
            record = record_for(page.records, view)
            if record is None:
                return None
            verdict = Verdict(view.request_id, record, self.safety_check(record, view))
            page.verdict = verdict
        return verdict

    def on_before_request(self, view: StageView) -> None:
        """Early validation: associate a nonce, run the checks, keep the verdict."""
        self._verdict(view)

    def on_request_credentials(
        self, view: StageView
    ) -> Union[None, SafetyDecision, SubstitutionRequest]:
        """Credential-stage provider: the substitution if approved, else the
        refusing decision, which the browser logs.

        In the early-position mode this callback fires before validation
        had a chance to run, so it associates and checks on the spot.
        """
        verdict = self._verdict(view)
        if verdict is None:
            return None
        if not verdict.decision.approved:
            return verdict.decision
        return approve(verdict.record, view.url)
