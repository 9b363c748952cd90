"""Password manager: vault entries, nonce autofill, and the safety gate.

Instead of autofilling the password, the manager fills a random 16-character
alphanumeric nonce and asks the browser to swap it for the real password
deep in the request pipeline, gated by the five checks of `pipeline.check`.
A refusal means the request simply goes out still carrying the nonce.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Container, Optional, Sequence

from .dom import FieldKind, Form, HookKind, Page, SubmitHook
from .extensions import ExtensionHost, ExtensionManifest, NonceRegistry, Permission
from .http_model import Origin, Url
from .pipeline import (
    CHECK_NAMES,
    DefenseMode,
    NonceRecord,
    PinConflict,
    SafetyDecision,
    Stage,
    StageView,
    SubstitutionRequest,
    VaultEntry,
    approve,
    check,
    record_for,
)
from .tsv import TsvFormatError, read_rows

__all__ = [
    "CHECK_NAMES",
    "MANAGER_EXTENSION_ID",
    "NONCE_ALPHABET",
    "NONCE_LENGTH",
    "NoPasswordField",
    "NonceRecord",
    "OriginMismatch",
    "PasswordManager",
    "PendingReplacement",
    "PinConflict",
    "SafetyDecision",
    "VaultEntry",
    "VaultFormatError",
    "generate_nonce",
    "load_vault",
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


class VaultFormatError(TsvFormatError):
    kind = "vault"


@dataclass(eq=False)
class PendingReplacement:
    request_id: int
    record: NonceRecord
    decision: SafetyDecision
    url: Url  # the request's destination, parsed once


def generate_nonce(rng: Random, used: Container[str] = frozenset()) -> str:
    """Draw a 16-char [A-Za-z0-9] nonce by rejection sampling, avoiding `used`.

    `used` is only tested for membership, so a caller can pass its own
    mapping or set without copying it.
    """
    while True:
        chars: list[str] = []
        while len(chars) < NONCE_LENGTH:
            v = rng.getrandbits(6)
            if v < len(NONCE_ALPHABET):
                chars.append(NONCE_ALPHABET[v])
        nonce = "".join(chars)
        if nonce not in used:
            return nonce


def load_vault(path: str | Path) -> list[VaultEntry]:
    """Parse a tab-separated vault file.

    Line format: origin <TAB> username <TAB> password [<TAB> pinned_url].
    Blank lines and lines starting with '#' are skipped.
    """
    entries: list[VaultEntry] = []
    for number, columns in read_rows(path, (3, 4), VaultFormatError):
        origin_text, username, password = columns[0], columns[1], columns[2]
        try:
            origin = Origin.parse(origin_text)
        except ValueError as exc:
            raise VaultFormatError(number, f"bad origin {origin_text!r}: {exc}") from exc
        if not password:
            raise VaultFormatError(number, "empty password")
        pinned = columns[3] if len(columns) == 4 and columns[3] else None
        entries.append(VaultEntry(origin, username, password, pinned_submit_url=pinned))
    return entries


class PasswordManager:
    """The manager extension: fills nonces and gates their replacement.

    One manager serves one browsing session. It registers two pipeline
    callbacks in the API defense modes (validate early, substitute at the
    credential stage) and uses the browser nonce registry in the
    callback-free mode.
    """

    def __init__(
        self,
        vault: Sequence[VaultEntry],
        rng: Random,
        *,
        pinning_enabled: bool = True,
    ) -> None:
        self.vault = list(vault)
        self.rng = rng
        self.pinning_enabled = pinning_enabled
        self.manifest = _MANIFEST
        self.registry: Optional[NonceRegistry] = None
        self.decisions: list[tuple[int, SafetyDecision]] = []
        self._records: dict[str, NonceRecord] = {}
        self._pending: dict[int, PendingReplacement] = {}

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
        NoPasswordField when there is nothing safe to fill.
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

        nonce = generate_nonce(self.rng, self._records)
        password_field.value = nonce
        record = NonceRecord(
            nonce=nonce,
            entry=entry,
            form_id=form_id,
            field_name=password_field.name,
            in_iframe=page.is_iframe,
            pinning_enabled=self.pinning_enabled,
        )
        self._records[nonce] = record
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
        elif mode is DefenseMode.MANIFEST_V3:
            if self.registry is None:
                raise RuntimeError("manifest_v3 autofill needs a browser nonce registry")
            self.registry.register_nonce(self.manifest, page, record)
        return record

    def _fill_username(self, form: Form, username: str) -> None:
        named = next((f for f in form.fields if f.name == "username"), None)
        target = named or form.first_of_kind(FieldKind.TEXT)
        if target is not None:
            target.value = username

    # -- pipeline wiring ----------------------------------------------------

    def register_with(self, host: ExtensionHost, mode: DefenseMode):
        """Install the manager extension and its listeners for this mode."""
        ext = host.install(self.manifest)
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
        return ext

    # -- the five checks -------------------------------------------------------

    def safety_check(self, record: NonceRecord, view: StageView, url: Url) -> SafetyDecision:
        """Run the five ordered checks and log the verdict in `decisions`."""
        decision = check(record, view, url)
        self.decisions.append((view.request_id, decision))
        return decision

    # -- pipeline callbacks -------------------------------------------------------

    def _associate(self, view: StageView) -> Optional[PendingReplacement]:
        """Find the nonce a new request carries, parse its destination once,
        check it, and keep the verdict for the request's later stage."""
        record = record_for(self._records, view)
        if record is None:
            return None
        url = Url.parse(view.url)
        decision = self.safety_check(record, view, url)
        pending = PendingReplacement(view.request_id, record, decision, url)
        self._pending[view.request_id] = pending
        return pending

    def on_before_request(self, view: StageView) -> None:
        """Early validation: associate a nonce, run the checks, stash the verdict."""
        if view.request_id not in self._pending:
            self._associate(view)

    def on_request_credentials(self, view: StageView) -> Optional[SubstitutionRequest]:
        """Credential-stage provider: emit the substitution if approved.

        In the early-position mode this callback fires before validation
        had a chance to run, so it associates and checks on the spot.
        """
        pending = self._pending.get(view.request_id) or self._associate(view)
        if pending is None or not pending.decision.approved:
            return None
        return approve(pending.record, pending.url)
