"""The webRequest lifecycle with a credential-substitution stage.

Seven stages: onBeforeRequest, onBeforeSendHeaders, onSendHeaders,
onRequestCredentials, onHeadersReceived, onResponseStarted, onCompleted.
The credential stage is where nonce-to-password replacement happens. Where
it sits, and what a listener there may see, depends on the defense mode:

* baseline        - no substitution; whatever the DOM submitted goes out.
* design3_dom     - substitution already happened in the DOM (submit hook);
                    the pipeline itself behaves like baseline.
* design4_api_early - the credential stage fires immediately before
                    onBeforeRequest, so every later listener sees the
                    substituted body.
* design5_api_late  - the credential stage fires after onSendHeaders; no
                    listener at any stage can observe the substituted body.
* manifest_v3     - substitution happens at the design5 point but is driven
                    by the browser's nonce store; no callback fires.

Every nonce mode decides a swap by the same policy, written once below:
`record_for` finds the nonce a request carries, `check` runs the five
checks, `approve` learns the pin and builds the substitution. The records
live in one `NonceStore`, by page id, and each reader takes only the
submitting page's: design4 and design5 run the policy in the manager's
callbacks, manifest_v3 in `dispatch` itself. A refusal is one
`substitutionRefused` transcript event in every mode.

Listener views are tuples (`StageView`), one per stage of a hop, shared by
every listener at that stage; no listener can set a field. A request-side
view shows the hop's body as it stands, labelled pre- or post-substitution,
with one exception: design5's credential view strips it (validation happened
earlier). So design4's stages after an approved swap show the real secret,
labelled post-substitution; response-side stages never expose a request body.

A delivery's transcript line (`Delivery`) holds only its listener id and its
view, and reads the request id, stage, body view and digest from the view
when the line is read. A view cannot change, so neither can the line, and a
body is hashed only if someone reads the transcript.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .http_model import (
    ChannelSecurity,
    FormEntries,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    WebResponseRecord,
    channel_for,
    checked_make,
    header_value,
)

__all__ = [
    "CHECK_NAMES",
    "BodyView",
    "Cancel",
    "Cancelled",
    "DefenseMode",
    "Delivery",
    "ListenerRegistration",
    "ListenerRegistry",
    "MAX_REDIRECT_HOPS",
    "NonceRecord",
    "NonceStore",
    "PageNonces",
    "PinConflict",
    "PipelineConfig",
    "Redirect",
    "RedirectLoop",
    "SafetyDecision",
    "Stage",
    "StageTranscript",
    "StageView",
    "SubstitutionRequest",
    "TranscriptEvent",
    "VaultEntry",
    "Verdict",
    "apply_substitutions",
    "approve",
    "check",
    "dispatch",
    "process_response",
    "record_for",
    "stage_order",
]


class Stage(Enum):
    # members are singletons and compare by identity, so hash by identity too
    # (C-level, unlike Enum.__hash__): listener lookups key on stages. Every
    # noncepipe enum does the same, so no report may iterate a set of enum
    # members: that order would then follow memory addresses.
    __hash__ = object.__hash__

    ON_BEFORE_REQUEST = "onBeforeRequest"
    ON_BEFORE_SEND_HEADERS = "onBeforeSendHeaders"
    ON_SEND_HEADERS = "onSendHeaders"
    ON_REQUEST_CREDENTIALS = "onRequestCredentials"
    ON_HEADERS_RECEIVED = "onHeadersReceived"
    ON_RESPONSE_STARTED = "onResponseStarted"
    ON_COMPLETED = "onCompleted"


REQUEST_STAGES = (
    Stage.ON_BEFORE_REQUEST,
    Stage.ON_BEFORE_SEND_HEADERS,
    Stage.ON_SEND_HEADERS,
)
RESPONSE_STAGES = (
    Stage.ON_HEADERS_RECEIVED,
    Stage.ON_RESPONSE_STARTED,
    Stage.ON_COMPLETED,
)
BLOCKING_STAGES = (Stage.ON_BEFORE_REQUEST, Stage.ON_BEFORE_SEND_HEADERS)
BODY_VISIBLE_STAGES = REQUEST_STAGES


class DefenseMode(Enum):
    __hash__ = object.__hash__  # by identity, as Stage

    BASELINE = "baseline"
    DESIGN3_DOM = "design3_dom"
    DESIGN4_API_EARLY = "design4_api_early"
    DESIGN5_API_LATE = "design5_api_late"
    MANIFEST_V3 = "manifest_v3"


class BodyView(Enum):
    __hash__ = object.__hash__  # by identity, as Stage

    FULL_PRE_SUBSTITUTION = "full_pre_substitution"
    FULL_POST_SUBSTITUTION = "full_post_substitution"
    STRIPPED = "stripped"
    ABSENT = "absent"


# the members that the per-request code reads, as module globals: on 3.11 a
# read through the class (`Stage.ON_REQUEST_CREDENTIALS`) costs about ten
# times a global's
_CREDENTIALS = Stage.ON_REQUEST_CREDENTIALS
_DESIGN5 = DefenseMode.DESIGN5_API_LATE
_MANIFEST_V3 = DefenseMode.MANIFEST_V3
_FULL = BodyView.FULL_PRE_SUBSTITUTION
_FULL_POST = BodyView.FULL_POST_SUBSTITUTION
_STRIPPED = BodyView.STRIPPED
_ABSENT = BodyView.ABSENT
_GOOD_TLS = ChannelSecurity.GOOD_TLS

# The request-side walk of each mode: the one place that says where the
# credential stage sits. design5 and manifest_v3 put it after the last stage
# whose listeners can read the body.
REQUEST_WALK: dict[DefenseMode, tuple[Stage, ...]] = {
    DefenseMode.BASELINE: REQUEST_STAGES,
    DefenseMode.DESIGN3_DOM: REQUEST_STAGES,
    DefenseMode.DESIGN4_API_EARLY: (Stage.ON_REQUEST_CREDENTIALS,) + REQUEST_STAGES,
    DefenseMode.DESIGN5_API_LATE: REQUEST_STAGES + (Stage.ON_REQUEST_CREDENTIALS,),
    DefenseMode.MANIFEST_V3: REQUEST_STAGES + (Stage.ON_REQUEST_CREDENTIALS,),
}


def stage_order(mode: DefenseMode) -> tuple[Stage, ...]:
    """Canonical stage order for a defense mode (credential stage moves)."""
    return REQUEST_WALK[mode] + RESPONSE_STAGES


# ---------------------------------------------------------------------------
# the substitution policy: records, the store, the five checks, the guard
# ---------------------------------------------------------------------------

CHECK_NAMES = {1: "frame", 2: "channel", 3: "destination", 4: "get_params", 5: "field_name"}


class PinConflict(ValueError):
    """An entry is already pinned to a different submit URL."""


class VaultEntry:
    """One stored credential. The repr masks the password."""

    __slots__ = ("origin", "username", "password", "pinned_submit_url")

    def __init__(
        self, origin: Origin, username: str, password: str, pinned_submit_url: Optional[str] = None
    ) -> None:
        self.origin = origin
        self.username = username
        self.password = password
        self.pinned_submit_url = pinned_submit_url

    def __repr__(self) -> str:
        pin = f", pinned={self.pinned_submit_url!r}" if self.pinned_submit_url else ""
        return f"VaultEntry({self.origin}, {self.username!r}, password=***{pin})"

    @staticmethod
    def pin_of(url: Url) -> str:
        """A submit URL's pin: scheme://host[:port]/path, a query-free URL's own text."""
        return f"{url.origin}{url.path}" if url.query else url.to_string()

    def learn_submit_url(self, url: Url) -> None:
        """Pin the submit URL on first use; later URLs must match exactly."""
        pin = self.pin_of(url)
        if self.pinned_submit_url is None:
            self.pinned_submit_url = pin
        elif self.pinned_submit_url != pin:
            raise PinConflict(
                f"entry for {self.origin} is pinned to {self.pinned_submit_url!r}, got {pin!r}"
            )


class NonceRecord(NamedTuple):
    """The policy registered with one nonce: the entry and field it stands
    for, whether the form sat in an iframe, and whether pins are enforced.
    It keeps no page, so a dropped page is freed."""

    nonce: str
    entry: VaultEntry
    form_id: str
    field_name: str
    in_iframe: bool
    pinning_enabled: bool


class SafetyDecision(namedtuple("SafetyDecision", "approved reason detail")):
    """The checks' answer; a refusal's `reason` is its first failing check, 1..5."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls, approved: bool, reason: Optional[int] = None, detail: str = ""
    ) -> "SafetyDecision":
        if not approved and reason not in CHECK_NAMES:
            raise ValueError("refusals must carry a check number 1..5")
        return tuple.__new__(cls, (approved, reason, detail))


# every approval is this one decision: a tuple, so no reader can change it
_APPROVED = SafetyDecision(True, None, "all checks passed")


class Verdict(NamedTuple):
    """The checks' answer for one request: what the design4/design5 manager
    keeps between its two callbacks."""

    request_id: int
    record: NonceRecord
    decision: SafetyDecision


class PageNonces:
    """One page's entry in the store: its live records by nonce, the verdict
    on the request it has in flight, if any, and a weak reference to the
    page, whose callback drops the entry."""

    __slots__ = ("page", "records", "verdict")

    def __init__(self, page: weakref.ref) -> None:
        self.page = page
        self.records: dict[str, NonceRecord] = {}
        self.verdict: Optional[Verdict] = None


class NonceStore:
    """The browser's nonce records, keyed by page id (webRequest's documentId).

    The manager writes each autofilled nonce here in every nonce mode; only an
    extension holding `secrets` is handed the store (`Extension.nonces`). It
    keeps no page: an entry goes when its
    page is collected, a record when a new autofill of its form replaces it,
    and a verdict when its request's flow ends (`BrowserSession`).
    """

    def __init__(self) -> None:
        self._pages: dict[str, PageNonces] = {}

    def add(self, page, record: NonceRecord) -> None:
        entry = self._pages.get(page.page_id)
        if entry is None:
            pages, page_id = self._pages, page.page_id
            entry = pages[page_id] = PageNonces(weakref.ref(page, lambda _: pages.pop(page_id)))
        else:  # a new autofill of a form replaces that form's record
            records = entry.records.items()
            entry.records = {n: r for n, r in records if r.form_id != record.form_id}
        entry.records[record.nonce] = record

    def page(self, page_id: Optional[str]) -> Optional[PageNonces]:
        """The page's entry; None for a page that was never autofilled."""
        return self._pages.get(page_id)

    def clear(self) -> None:
        """Forget every page; a page still alive no longer counts either."""
        self._pages.clear()

    def end_request(self, page_id: str) -> None:
        """Forget the page's verdict: the request it was for has left."""
        entry = self._pages.get(page_id)
        if entry is not None:
            entry.verdict = None

    def __contains__(self, nonce: object) -> bool:
        """Whether a live page holds `nonce` (what `generate_nonce` avoids)."""
        for entry in self._pages.values():
            if nonce in entry.records:
                return True
        return False


def record_for(records: Mapping[str, NonceRecord], view: StageView) -> Optional[NonceRecord]:
    """The record of the first registered nonce the request carries, in its
    query or its body; None for a request that carries none."""
    body = view.form.entries if view.form is not None else ()
    for _, value in view.url.query + body:
        record = records.get(value)
        if record is not None:
            return record
    return None


def check(record: NonceRecord, view: StageView) -> SafetyDecision:
    """Run the five ordered checks on a request view; the first failure is
    the verdict. Pure: it changes no argument.

    Check 1  the login form is not in an iframe
    Check 2  the connection is well-secured HTTPS (not HTTP, not broken TLS)
    Check 3  the destination origin matches the vault entry; if a submit URL
             is pinned and pinning is on, the destination must equal it
    Check 4  the nonce does not travel in GET parameters
    Check 5  every field holding the nonce bears the autofilled field's name
    """
    entry = record.entry
    if record.in_iframe:
        return SafetyDecision(False, 1, "login form is inside an iframe")

    if view.channel is not _GOOD_TLS:
        channel = view.channel.value if view.channel else "unknown"
        return SafetyDecision(False, 2, f"channel is {channel}")

    url = view.url
    if url.origin != entry.origin:
        return SafetyDecision(False, 3, f"destination {url.origin} != entry {entry.origin}")
    if record.pinning_enabled and entry.pinned_submit_url is not None:
        pin = VaultEntry.pin_of(url)
        if pin != entry.pinned_submit_url:
            return SafetyDecision(
                False, 3, f"destination {pin!r} != pinned {entry.pinned_submit_url!r}"
            )

    if view.method == "GET" and any(v == record.nonce for _, v in view.url.query):
        return SafetyDecision(False, 4, "nonce travels in GET parameters")

    body = view.form.entries if view.form is not None else ()
    for name, value in body:
        if value == record.nonce and name != record.field_name:
            return SafetyDecision(
                False, 5, f"nonce sits in field {name!r}, autofilled {record.field_name!r}"
            )

    return _APPROVED


def approve(record: NonceRecord, url: Url) -> SubstitutionRequest:
    """The substitution an approved record asks for, pinning the submit URL
    `url` first when pinning is on."""
    entry = record.entry
    if record.pinning_enabled:
        entry.learn_submit_url(url)
    return SubstitutionRequest(record.field_name, record.nonce, entry.password, entry.origin)


class SubstitutionRequest:
    """One requested nonce-to-secret replacement, checked by the browser.

    The browser applies it only when all three of these hold for a body
    entry: the entry name equals `field_name` exactly, the entry value
    equals `nonce` exactly (no additional characters), and the request's
    destination origin equals `expected_origin`. It holds a secret, so it
    is no tuple that a serializer would write out, and no field can be set
    once it is checked.
    """

    __slots__ = ("field_name", "nonce", "replacement", "expected_origin")

    def __init__(
        self, field_name: str, nonce: str, replacement: str, expected_origin: Origin
    ) -> None:
        if not field_name:
            raise ValueError("field_name must be non-empty")
        if not nonce:
            raise ValueError("nonce must be non-empty")
        if nonce == replacement:
            raise ValueError("replacement must differ from the nonce")
        set_slot = object.__setattr__  # this class's own refuses every field
        set_slot(self, "field_name", field_name)
        set_slot(self, "nonce", nonce)
        set_slot(self, "replacement", replacement)
        set_slot(self, "expected_origin", expected_origin)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r}: a substitution request is read-only")

    def __delattr__(self, name: str) -> None:
        self.__setattr__(name, None)

    def __repr__(self) -> str:  # never print the replacement secret
        return (
            f"SubstitutionRequest(field={self.field_name!r}, nonce={self.nonce!r}, "
            f"origin={self.expected_origin})"
        )


def apply_substitutions(
    entries: FormEntries,
    substitutions: Sequence[SubstitutionRequest],
    destination: Url,
) -> tuple[FormEntries, tuple[SubstitutionRequest, ...]]:
    """Apply every substitution whose three checks all pass.

    Returns the new entry list and the substitutions actually applied.
    Pure and idempotent: once a value is replaced it no longer equals any
    nonce, so re-applying changes nothing. When several substitutions target
    the same field, earlier ones win (a replaced value fails the later
    value check).
    """
    current = list(entries)
    applied: list[SubstitutionRequest] = []
    for sub in substitutions:
        if destination.origin != sub.expected_origin:
            continue
        hit = False
        for i, (name, value) in enumerate(current):
            if name == sub.field_name and value == sub.nonce:
                current[i] = (name, str(sub.replacement))  # a body holds strings
                hit = True
        if hit:
            applied.append(sub)
    return tuple(current), tuple(applied)


# ---------------------------------------------------------------------------
# listeners
# ---------------------------------------------------------------------------


class StageView(NamedTuple):
    """Read-only snapshot handed to every listener at one stage: a tuple, so
    it costs one allocation and no field can be set.

    `form` is the RequestBody the view shows, or None when it shows none;
    readers take its entries, bytes and digest as they are. `url` is the
    request's destination, query included. `document_id` is the submitting
    page's id (None on response stages).
    """

    request_id: int
    stage: Stage
    method: str
    url: Url
    headers: tuple[tuple[str, str], ...]
    body_view: BodyView
    form: Optional[RequestBody]
    channel: Optional[ChannelSecurity] = None
    status: Optional[int] = None
    document_id: Optional[str] = None

    @property
    def body(self) -> Optional[bytes]:
        return self.form.raw if self.form is not None else None

    def header(self, name: str) -> Optional[str]:
        return header_value(self.headers, name)

    def body_digest(self) -> str:
        """The transcript digest of the body: sha256 hex, or "-" for none."""
        return self.form.digest() if self.form is not None else "-"

    def visible_strings(self) -> tuple[str, ...]:
        """Everything a listener could copy out of this view, as strings."""
        out = [self.url.to_string()]
        out += [v for _, v in self.url.query]
        out += [f"{k}: {v}" for k, v in self.headers]
        if self.form is not None:
            out.append(self.form.raw.decode("utf-8", "replace"))
        return tuple(out)


class Cancel(NamedTuple):
    reason: str = "cancelled by listener"


class Redirect(NamedTuple):
    url: Url


BlockingAction = Union[Cancel, Redirect]
ListenerResult = Union[None, Cancel, Redirect, SafetyDecision, SubstitutionRequest]
ListenerCallback = Callable[[StageView], ListenerResult]


class Cancelled(RuntimeError):
    def __init__(self, request_id: int, listener_id: str, reason: str) -> None:
        super().__init__(f"request {request_id} cancelled by {listener_id}: {reason}")
        self.request_id = request_id
        self.listener_id = listener_id


class RedirectLoop(RuntimeError):
    pass


MAX_REDIRECT_HOPS = 8


class ListenerRegistration(NamedTuple):
    """One listener of one extension at one stage.

    `sink` is the owning extension's observation log; the pipeline itself
    appends every view the listener was shown, so leak analysis never has
    to trust listener code to self-report.
    """

    listener_id: str
    extension_id: str
    stage: Stage
    blocking: bool
    callback: ListenerCallback
    sink: Optional[list[StageView]] = None


class ListenerRegistry:
    """Listeners by stage, each stage in registration order (registration
    order settles conflicts)."""

    def __init__(self) -> None:
        self._by_stage: dict[Stage, tuple[ListenerRegistration, ...]] = {}

    def add(self, registration: ListenerRegistration) -> None:
        stage = registration.stage
        self._by_stage[stage] = self._by_stage.get(stage, ()) + (registration,)

    def remove(self, extension_id: str) -> None:
        """Drop every listener of one extension; a stage it never listened at keeps its tuple."""
        for stage, registrations in self._by_stage.items():
            kept = tuple([r for r in registrations if r.extension_id != extension_id])
            if len(kept) < len(registrations):
                self._by_stage[stage] = kept

    def at(self, stage: Stage) -> tuple[ListenerRegistration, ...]:
        return self._by_stage.get(stage, ())

    def __len__(self) -> int:
        return sum(map(len, self._by_stage.values()))


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------

EVENT_LISTENER = "!browser"
EVENT_SUBSTITUTION = "substitution"
EVENT_SUBSTITUTION_CONFLICT = "substitutionConflict"
EVENT_SUBSTITUTION_REFUSED = "substitutionRefused"
EVENT_FIDO2_STRIP = "fido2Strip"
EVENT_FIDO2_INJECT = "fido2Inject"
EVENT_CANCEL = "cancel"
EVENT_REDIRECT = "redirect"


class TranscriptEvent(NamedTuple):
    """A browser event's transcript line, held as text."""

    request_id: int
    label: str
    listener_id: str
    body_view: str
    digest: str  # the event's detail, or "-"

    def to_line(self) -> str:
        return f"{self.request_id} {self.label} {self.listener_id} {self.body_view} {self.digest}"


class Delivery(NamedTuple):
    """A listener delivery's transcript line. It keeps the listener and the
    view; the rest of the line is read from the view, which cannot change,
    so the line's bytes are fixed and a body is hashed only when read."""

    listener_id: str
    view: StageView

    @property
    def request_id(self) -> int:
        return self.view.request_id

    @property
    def label(self) -> str:
        return self.view.stage.value

    @property
    def body_view(self) -> str:
        return self.view.body_view.value

    @property
    def digest(self) -> str:
        return self.view.body_digest()

    to_line = TranscriptEvent.to_line  # the same line, its fields read from the view


class StageTranscript:
    """Ordered record of every delivery and browser event for one flow."""

    def __init__(self) -> None:
        self.events: list[Union[Delivery, TranscriptEvent]] = []

    def record_delivery(self, view: StageView, listener_id: str) -> None:
        self.events.append(tuple.__new__(Delivery, (listener_id, view)))

    def record_event(self, request_id: int, label: str, detail: str = "-") -> None:
        self.events.append(tuple.__new__(TranscriptEvent, (request_id, label, EVENT_LISTENER, "-", detail)))

    def to_text(self) -> str:
        return "".join(event.to_line() + "\n" for event in self.events)

    def deliveries(self) -> tuple[Delivery, ...]:
        return tuple(e for e in self.events if type(e) is Delivery)

    def refused_check(self) -> Optional[int]:
        """The check number of the first `substitutionRefused` event, if any."""
        for e in self.events:
            if type(e) is TranscriptEvent and e.label == EVENT_SUBSTITUTION_REFUSED:
                return int(e.digest.removeprefix("check="))
        return None


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class PipelineConfig(NamedTuple):
    """Per-browser pipeline behavior.

    `credential_stage_enabled=False` compiles the substitution machinery out
    entirely, which is the baseline for overhead comparisons: with no nonce
    in flight the wire bytes must be identical either way.
    """

    defense_mode: DefenseMode = DefenseMode.DESIGN5_API_LATE
    credential_stage_enabled: bool = True


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------


def _request_view(request: WebRequestRecord, stage: Stage, body_view: BodyView) -> StageView:
    """A request-side view of the body as it stands, labelled `body_view`;
    a STRIPPED view shows none, and a request without a body shows ABSENT."""
    if body_view is _STRIPPED:
        form = None
    else:
        form = request.body
        if form is None:
            body_view = _ABSENT
    # a view checks nothing, so it skips the generated `__new__`
    return tuple.__new__(StageView, (
        request.request_id,
        stage,
        request.method,
        request.url,
        request.headers,
        body_view,
        form,
        request.channel_security,
        None,  # status
        getattr(request.source_page, "page_id", None),
    ))


def _response_view(
    request_id: int, url: Url, stage: Stage, response: WebResponseRecord
) -> StageView:
    return tuple.__new__(StageView, (
        request_id,
        stage,
        "-",  # method
        url,
        response.headers,
        _ABSENT,
        None,  # form
        None,  # channel
        response.status,
        None,  # document_id
    ))


def _deliver(
    reg: ListenerRegistration, view: StageView, transcript: StageTranscript
) -> ListenerResult:
    """Hand a view to one listener: transcript line, sink, then the callback."""
    transcript.record_delivery(view, reg.listener_id)
    if reg.sink is not None:
        reg.sink.append(view)
    return reg.callback(view)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _refuse(transcript: StageTranscript, request_id: int, decision: SafetyDecision) -> None:
    transcript.record_event(request_id, EVENT_SUBSTITUTION_REFUSED, detail=f"check={decision.reason}")


def _collect_substitutions(
    request: WebRequestRecord,
    listeners: ListenerRegistry,
    config: PipelineConfig,
    transcript: StageTranscript,
    nonce_store: Optional[NonceStore],
) -> list[SubstitutionRequest]:
    """Run the credential stage: callbacks for API modes, which may answer
    with a refusing SafetyDecision; in manifest_v3 the browser runs the policy
    on the submitting page's records, on a full view no listener gets. Any
    other result is ignored: the credential stage is not a blocking stage."""
    collected: list[SubstitutionRequest] = []
    if config.defense_mode is _MANIFEST_V3:
        page_id = getattr(request.source_page, "page_id", None)
        entry = nonce_store.page(page_id) if nonce_store is not None else None
        if entry is None:  # a nonce-free page pays for nothing more
            return collected
        view = _request_view(request, _CREDENTIALS, _FULL)
        record = record_for(entry.records, view)
        if record is None:
            return collected
        decision = check(record, view)
        if decision.approved:
            return [approve(record, request.url)]
        _refuse(transcript, request.request_id, decision)
        return collected
    regs = listeners.at(_CREDENTIALS)
    if not regs:
        return collected
    view = _request_view(
        request, _CREDENTIALS, _STRIPPED if config.defense_mode is _DESIGN5 else _FULL
    )
    for reg in regs:
        result = _deliver(reg, view, transcript)
        if result is None:  # an idle listener's answer: skip the type tests
            continue
        if isinstance(result, SubstitutionRequest):
            collected.append(result)
        elif isinstance(result, SafetyDecision) and not result.approved:
            _refuse(transcript, request.request_id, result)
    return collected


def _run_credential_phase(
    request: WebRequestRecord,
    listeners: ListenerRegistry,
    config: PipelineConfig,
    transcript: StageTranscript,
    nonce_store: Optional[NonceStore],
) -> WebRequestRecord:
    """Apply the approved swaps: one new body, encoded once, and one new record."""
    subs = _collect_substitutions(request, listeners, config, transcript, nonce_store)
    if not subs:
        return request
    if len(subs) > 1 and len({s.field_name for s in subs}) < len(subs):
        transcript.record_event(request.request_id, EVENT_SUBSTITUTION_CONFLICT)
    if request.body is None:
        return request
    new_entries, applied = apply_substitutions(request.body.entries, subs, request.url)
    if not applied:
        return request
    transcript.record_event(request.request_id, EVENT_SUBSTITUTION, f"applied={len(applied)}")
    return request.with_body(RequestBody.encoded(new_entries))


def _reissue(
    request: WebRequestRecord, body: Optional[RequestBody], url: Url, new_id: int
) -> WebRequestRecord:
    return request._replace(
        request_id=new_id,
        url=url,
        body=body,
        channel_security=channel_for(url, getattr(request.source_page, "tls_overrides", {})),
        parent_request_id=request.request_id,
    )


def dispatch(
    request: WebRequestRecord,
    listeners: ListenerRegistry,
    config: PipelineConfig,
    *,
    transcript: Optional[StageTranscript] = None,
    nonce_store: Optional[NonceStore] = None,
    id_allocator: Optional[Callable[[], int]] = None,
) -> tuple[WebRequestRecord, StageTranscript]:
    """Run the request-side stages and return what actually hits the wire.

    Substitution state never survives a redirect: each hop restarts the
    stage walk as a fresh request with a new id and the body as the page
    sent it, so a secret swapped in before the redirect (design4) does not
    follow it. The next hop's credential stage checks the nonce against the
    new destination, and validation listeners see that destination.
    """
    transcript = transcript if transcript is not None else StageTranscript()
    walk = REQUEST_WALK[config.defense_mode] if config.credential_stage_enabled else REQUEST_STAGES
    hops = 0
    current = request

    while True:
        sent = current.body  # the body the page sent: a redirect re-issues it
        body_view = _FULL
        redirected_to: Optional[Url] = None

        for stage in walk:
            if stage is _CREDENTIALS:
                current = _run_credential_phase(current, listeners, config, transcript, nonce_store)
                if current.body is not sent:  # a swap was applied
                    body_view = _FULL_POST
                continue
            regs = listeners.at(stage)
            if not regs:
                continue
            view = _request_view(current, stage, body_view)
            for reg in regs:
                result = _deliver(reg, view, transcript)
                if not reg.blocking:
                    continue
                if isinstance(result, Cancel):
                    transcript.record_event(current.request_id, EVENT_CANCEL, reg.listener_id)
                    raise Cancelled(current.request_id, reg.listener_id, result.reason)
                if isinstance(result, Redirect):
                    transcript.record_event(
                        current.request_id, EVENT_REDIRECT, reg.listener_id
                    )
                    redirected_to = result.url
                    break
            if redirected_to is not None:
                break

        if redirected_to is not None:
            hops += 1
            if hops > MAX_REDIRECT_HOPS:
                raise RedirectLoop(f"more than {MAX_REDIRECT_HOPS} redirect hops")
            new_id = id_allocator() if id_allocator else current.request_id * 1000 + hops
            current = _reissue(current, sent, redirected_to, new_id)
            continue

        return current, transcript


def process_response(
    response: WebResponseRecord,
    listeners: ListenerRegistry,
    *,
    request_url: Url,
    transcript: Optional[StageTranscript] = None,
) -> tuple[WebResponseRecord, StageTranscript]:
    """Run the response-side stages and return what the page receives."""
    transcript = transcript if transcript is not None else StageTranscript()
    for stage in RESPONSE_STAGES:
        regs = listeners.at(stage)
        if not regs:
            continue
        view = _response_view(response.request_id, request_url, stage, response)
        for reg in regs:
            _deliver(reg, view, transcript)
    return response, transcript
