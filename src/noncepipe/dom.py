"""Minimal DOM: pages, forms, fields, scripts, and submit-time hooks.

The DOM is the attacker-visible surface. Every script read is appended to
the reading script's log so that leak analysis can later replay exactly what
each actor observed; every mutation lands in the page audit trail. Submit
hooks transform the outgoing entry list in registration order, which is how
both benign site behaviors (hash-before-submit, encode-before-submit) and
submit-time observers are modeled.
"""

from __future__ import annotations

import base64
import hashlib
from enum import Enum
from typing import NamedTuple, Optional

from .http_model import (
    ChannelSecurity,
    FormEntries,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    channel_for,
)

__all__ = [
    "AddField",
    "DomAccessError",
    "DuplicateField",
    "Field",
    "FieldKind",
    "Form",
    "HookKind",
    "Mutation",
    "NoSuchField",
    "NoSuchForm",
    "Page",
    "Provenance",
    "RegisterSubmitHook",
    "RenameField",
    "ScriptHandle",
    "SetFormAction",
    "SubmitHook",
    "attach_script",
    "build_request",
    "read_rendered_text",
    "script_mutate",
    "script_read_field",
    "submit_form",
]


class DomAccessError(PermissionError):
    """A script acted on a page its provenance gives it no access to."""


class NoSuchForm(KeyError):
    pass


class NoSuchField(KeyError):
    pass


class DuplicateField(ValueError):
    """Field names are unique per form; a second field with the same name."""


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------


class Provenance(Enum):
    PAGE = "page"
    LIBRARY = "library"
    XSS = "xss"


class ScriptHandle:
    """A script running in some page, with an append-only observation log."""

    __slots__ = ("script_id", "provenance", "log")

    def __init__(self, script_id: str, provenance: Provenance) -> None:
        self.script_id = script_id
        self.provenance = provenance
        self.log: list[str] = []

    def observe(self, value: str) -> None:
        self.log.append(value)

    def __repr__(self) -> str:  # keep observed values out of reprs
        return f"ScriptHandle({self.script_id!r}, {self.provenance.value}, {len(self.log)} obs)"


# ---------------------------------------------------------------------------
# fields and forms
# ---------------------------------------------------------------------------


class FieldKind(Enum):
    TEXT = "text"
    PASSWORD = "password"
    HIDDEN = "hidden"


class Field:
    __slots__ = ("name", "kind", "value")

    def __init__(self, name: str, kind: FieldKind = FieldKind.TEXT, value: str = "") -> None:
        self.name = name
        self.kind = kind
        self.value = value


class HookKind(Enum):
    SHA256_FIELD = "sha256_field"
    BASE64_FIELD = "base64_field"
    COPY_FIELD = "copy_field"
    CAPTURE_FIELDS = "capture_fields"
    SWAP_VALUE = "swap_value"


class SubmitHook:
    """Pure transformer over the outgoing entry list, applied at submit time.

    `capture_fields` is the one impure member: it copies named values into a
    script's log, modeling code that fires between value replacement and the
    actual submission. `swap_value` replaces values equal to `match` with
    `replacement`, but only when the form's destination origin equals
    `guard_origin` (if set); its repr never prints the replacement.
    """

    __slots__ = ("kind", "field_name", "target", "match", "replacement", "sink", "guard_origin")

    def __init__(
        self, kind: HookKind, field_name: Optional[str] = None, target: Optional[str] = None,
        match: Optional[str] = None, replacement: Optional[str] = None,
        sink: Optional[ScriptHandle] = None, guard_origin: Optional[Origin] = None,
    ) -> None:
        self.kind = kind
        self.field_name = field_name
        self.target = target
        self.match = match
        self.replacement = replacement
        self.sink = sink
        self.guard_origin = guard_origin

    def apply(self, entries: FormEntries, action: Optional[Url] = None) -> FormEntries:
        kind = self.kind
        if kind is HookKind.SHA256_FIELD:
            return tuple(
                (n, hashlib.sha256(v.encode("utf-8")).hexdigest() if n == self.field_name else v)
                for n, v in entries
            )
        if kind is HookKind.BASE64_FIELD:
            return tuple(
                (n, base64.b64encode(v.encode("utf-8")).decode("ascii") if n == self.field_name else v)
                for n, v in entries
            )
        if kind is HookKind.COPY_FIELD:
            source = next((v for n, v in entries if n == self.field_name), None)
            if source is None:
                return entries
            if any(n == self.target for n, _ in entries):
                return tuple((n, source if n == self.target else v) for n, v in entries)
            return entries + ((str(self.target), source),)
        if kind is HookKind.CAPTURE_FIELDS:
            if self.sink is not None:
                for n, v in entries:
                    if self.field_name in (None, n):
                        self.sink.observe(v)
            return entries
        if kind is HookKind.SWAP_VALUE:
            if self.guard_origin is not None and (
                action is None or action.origin != self.guard_origin
            ):
                return entries
            return tuple((n, self.replacement if v == self.match else v) for n, v in entries)
        raise AssertionError(f"unhandled hook kind {kind}")

    def __repr__(self) -> str:
        return f"SubmitHook({self.kind.value}, field={self.field_name!r})"


class Form:
    """A login form: unique field names, an action URL, ordered submit hooks."""

    __slots__ = ("form_id", "action", "method", "fields", "submit_hooks")

    def __init__(
        self, form_id: str, action: Url, method: str = "POST", fields: Optional[list[Field]] = None
    ) -> None:
        fields = [] if fields is None else fields
        if method not in ("GET", "POST"):
            raise ValueError(f"unsupported form method {method!r}")
        names = [f.name for f in fields]
        if len(names) != len(set(names)):
            raise DuplicateField(f"duplicate field names in form {form_id!r}")
        self.form_id = form_id
        self.action = action
        self.method = method
        self.fields = fields
        self.submit_hooks: list[SubmitHook] = []

    def field_named(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise NoSuchField(name)

    def first_of_kind(self, kind: FieldKind) -> Optional[Field]:
        for f in self.fields:
            if f.kind is kind:
                return f
        return None


class Page:
    """One document: origin, frame position, forms, attached scripts. The
    nonce store holds it weakly, so it drops a page's records with the page."""

    __slots__ = (
        "page_id", "origin", "is_iframe", "forms", "scripts", "audit",
        "rendered_text", "tls_overrides", "webauthn", "__weakref__",
    )

    def __init__(self, page_id: str, origin: Origin, is_iframe: bool = False) -> None:
        self.page_id = page_id
        self.origin = origin
        self.is_iframe = is_iframe
        self.forms: dict[str, Form] = {}
        self.scripts: list[ScriptHandle] = []
        self.audit: list[str] = []
        self.rendered_text = ""
        self.tls_overrides: dict[Origin, ChannelSecurity] = {}
        self.webauthn: Optional[object] = None

    def form(self, form_id: str) -> Form:
        try:
            return self.forms[form_id]
        except KeyError:
            raise NoSuchForm(form_id) from None

    def add_form(self, form: Form) -> None:
        if form.form_id in self.forms:
            raise ValueError(f"page already has a form {form.form_id!r}")
        self.forms[form.form_id] = form


def attach_script(page: Page, script: ScriptHandle) -> None:
    """Give a script DOM access to a page; attaching twice is a no-op."""
    if script not in page.scripts:
        page.scripts.append(script)


def _require_access(script: ScriptHandle, page: Page) -> None:
    if script not in page.scripts:
        raise DomAccessError(
            f"script {script.script_id!r} has no DOM access to page {page.page_id!r}"
        )


# ---------------------------------------------------------------------------
# script operations
# ---------------------------------------------------------------------------


def script_read_field(script: ScriptHandle, page: Page, form_id: str, field_name: str) -> str:
    """Read a field value. The value is recorded in the script's log."""
    _require_access(script, page)
    value = page.form(form_id).field_named(field_name).value
    script.observe(value)
    return value


def read_rendered_text(script: ScriptHandle, page: Page) -> str:
    """Read the text the page last rendered (e.g. a reflected error body)."""
    _require_access(script, page)
    script.observe(page.rendered_text)
    return page.rendered_text


class RenameField(NamedTuple):
    form_id: str
    old_name: str
    new_name: str


class SetFormAction(NamedTuple):
    form_id: str
    action: Url


class AddField(NamedTuple):
    form_id: str
    field_name: str
    kind: FieldKind = FieldKind.HIDDEN
    value: str = ""


class RegisterSubmitHook(NamedTuple):
    form_id: str
    hook: SubmitHook


Mutation = RenameField | SetFormAction | AddField | RegisterSubmitHook


def script_mutate(script: ScriptHandle, page: Page, mutation: Mutation) -> None:
    """Apply one DOM mutation; the page audit trail records who did what."""
    _require_access(script, page)
    form = page.form(mutation.form_id)
    if isinstance(mutation, RenameField):
        target = form.field_named(mutation.old_name)
        if any(f.name == mutation.new_name for f in form.fields):
            raise DuplicateField(mutation.new_name)
        target.name = mutation.new_name
        page.audit.append(
            f"{script.script_id} renamed {mutation.form_id}.{mutation.old_name}"
            f" -> {mutation.new_name}"
        )
    elif isinstance(mutation, SetFormAction):
        form.action = mutation.action
        page.audit.append(f"{script.script_id} retargeted {mutation.form_id} -> {mutation.action}")
    elif isinstance(mutation, AddField):
        if any(f.name == mutation.field_name for f in form.fields):
            raise DuplicateField(mutation.field_name)
        form.fields.append(Field(mutation.field_name, mutation.kind, mutation.value))
        page.audit.append(f"{script.script_id} added {mutation.form_id}.{mutation.field_name}")
    elif isinstance(mutation, RegisterSubmitHook):
        form.submit_hooks.append(mutation.hook)
        page.audit.append(
            f"{script.script_id} hooked {mutation.form_id} ({mutation.hook.kind.value})"
        )
    else:
        raise TypeError(f"unknown mutation {mutation!r}")


# ---------------------------------------------------------------------------
# submission
# ---------------------------------------------------------------------------


def build_request(
    page: Optional[Page],
    method: str,
    action: Url,
    entries: FormEntries,
    request_id: int,
) -> WebRequestRecord:
    """The request a page sends (or, with no page, a client outside any
    browser): GET entries join the query, POST entries form the body; the
    channel comes from the action and the page's TLS."""
    headers: list[tuple[str, str]] = [("Host", action.host)]
    if method == "GET":
        url = action.with_query(action.query + entries)
        body = None
    else:
        url = action
        body = RequestBody.urlencoded(entries)
        headers.append(("Content-Type", body.content_type))

    return WebRequestRecord(
        request_id=request_id,
        method=method,
        url=url,
        headers=tuple(headers),
        body=body,
        channel_security=channel_for(action, page.tls_overrides if page else {}),
        source_page=page,
    )


def submit_form(page: Page, form_id: str, request_id: int = 0) -> WebRequestRecord:
    """Build the outgoing request for a form: run hooks, then encode.

    Hooks run in registration order over the entry list snapshot; the DOM
    fields themselves are not modified by submission.
    """
    form = page.form(form_id)
    entries: FormEntries = tuple((f.name, f.value) for f in form.fields)
    for hook in form.submit_hooks:
        entries = hook.apply(entries, action=form.action)
    return build_request(page, form.method, form.action, entries, request_id)
