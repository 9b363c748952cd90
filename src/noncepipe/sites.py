"""Synthetic sites: login endpoints, reflectors, and FIDO2 relying parties.

Each login category is one `LoginShape` in `LOGIN_SHAPES`: the form's
method and frame, whether it submits over plain HTTP, the submit hooks the
page runs on the password (hash it into an integrity field, or encode it),
and whether the site echoes what it gets. The page, the server's check, the
corpus grammar and `compat`'s classification all read that table. A `fido2`
site serves a relying party instead. Servers keep credential digests only.

The fixture corpus's category proportions (`FIXTURE_COUNTS`) mirror a
survey of real login forms; its reports say so.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .dom import Field, FieldKind, Form, HookKind, Page, SubmitHook
from .fido2 import BEGIN_PATH, FINISH_PATH, RelyingParty
from .http_model import Origin, Url, WebRequestRecord, WebResponseRecord, checked_make, read_only, sha256_hex
from .http_model import holds_secret, urlencode_entries
from .pipeline import CHECK_NAMES, DefenseMode, VaultEntry
from .rng import substream
from .session import BrowserSession
from .tsv import OptionTable, TsvFormatError, parse_options, read_rows

__all__ = [
    "CATEGORIES",
    "CompatRecord",
    "CompatReport",
    "CorpusFormatError",
    "FIXTURE_COUNTS",
    "LOGIN_CATEGORIES",
    "LOGIN_PATH",
    "LOGIN_SHAPES",
    "LoginShape",
    "REFLECT_PATH",
    "ServerFarm",
    "SiteProfile",
    "UnknownEndpoint",
    "World",
    "build_fixture_corpus",
    "build_login_page",
    "compat_evaluate",
    "generate_password",
    "parse_corpus",
    "site_vault_entry",
]


class LoginShape(NamedTuple):
    """How a login category's form sends the password."""

    method: str = "POST"
    in_iframe: bool = False
    plain_http: bool = False  # the form posts to the site's host over plain HTTP
    hooks: tuple[SubmitHook, ...] = ()  # run on the entries at submit, in order
    reflects: bool = False  # the site echoes what REFLECT_PATH gets


# login category -> its shape. A hook holds no state and a script only
# appends hooks, so every page of a category shares its shape's hooks.
LOGIN_SHAPES: dict[str, LoginShape] = {
    "plain_post": LoginShape(),
    "hashes_password": LoginShape(hooks=(
        SubmitHook(HookKind.COPY_FIELD, "password", "pw_hash"),  # an integrity field
        SubmitHook(HookKind.SHA256_FIELD, "pw_hash"),
    )),
    "transforms_password": LoginShape(hooks=(SubmitHook(HookKind.BASE64_FIELD, "password"),)),
    "get_submit": LoginShape("GET"),
    "iframe_login": LoginShape(in_iframe=True),
    "http_submit": LoginShape(plain_http=True),
    "reflecting": LoginShape(reflects=True),
}
LOGIN_CATEGORIES = tuple(LOGIN_SHAPES)
CATEGORIES = LOGIN_CATEGORIES + ("fido2",)

# where a login form posts, and where a reflecting site echoes what it gets
LOGIN_PATH = "/login"
REFLECT_PATH = "/reflect"

# the fixture corpus's login flows per category, and each one's site-id tag
FIXTURE_COUNTS = {"plain_post": 554, "hashes_password": 11, "transforms_password": 8}
_FIXTURE_TAGS = {"plain_post": "plain", "hashes_password": "hash", "transforms_password": "transform"}

MIN_PASSWORD_LEN = 4

_PASSWORD_ALPHABET = (
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789!@#$%^*()-_=+.,"
)

# a login verdict's response body
_LOGIN_BODIES = {
    "auth_ok": b"welcome",
    "auth_fail": b"invalid credentials",
    "integrity_fail": b"integrity failure",
}


class UnknownEndpoint(LookupError):
    """A request reached an origin nothing in the farm serves."""


class CorpusFormatError(TsvFormatError):
    kind = "corpus"


class SiteProfile(namedtuple("SiteProfile", "site_id category origin options")):
    """Static description of one site: category, origin, knobs. No
    `__slots__`: the instance dict keeps `login_action`, and no attribute
    can be set from outside."""

    _make = classmethod(checked_make)
    __setattr__ = __delattr__ = read_only

    def __new__(
        cls, site_id: str, category: str, origin: Origin, options: tuple[tuple[str, str], ...] = ()
    ) -> "SiteProfile":
        if category not in LOGIN_SHAPES and category != "fido2":
            raise ValueError(f"unknown site category {category!r}")
        return tuple.__new__(cls, (site_id, category, origin, options))

    def option(self, key: str, default: Optional[str] = "") -> Optional[str]:
        for name, value in self.options:
            if name == key:
                return value
        return default

    @cached_property
    def login_action(self) -> Url:
        """Where the login form posts, built once and shared by every page
        (a Url is frozen; a script retargets a form by replacing it)."""
        if LOGIN_SHAPES[self.category].plain_http:
            return Url("http", self.origin.host, 80, LOGIN_PATH)
        return Url(self.origin.scheme, self.origin.host, self.origin.port, LOGIN_PATH)


def generate_password(seed: int, site_id: str) -> str:
    """12 characters of `_PASSWORD_ALPHABET` from the site's vault stream."""
    return substream(seed, "vault", site_id).string(_PASSWORD_ALPHABET, 12)


def site_vault_entry(profile: SiteProfile, seed: int) -> VaultEntry:
    """The user's stored credential for a site (password option overrides,
    even when empty: `compat_evaluate` then excludes the site)."""
    password = profile.option("password", None)
    if password is None:
        password = generate_password(seed, profile.site_id)
    return VaultEntry(profile.origin, "alice", password)


# ---------------------------------------------------------------------------
# page construction
# ---------------------------------------------------------------------------


def build_login_page(session: BrowserSession, profile: SiteProfile) -> tuple[Page, str]:
    """Create the site's login page inside a session; returns (page, form_id).
    The form is built in one step: its two field names are literals, so only
    the shape's method is checked, and it is the new page's only form."""
    shape = LOGIN_SHAPES.get(profile.category)  # None: a fido2 site, which has no form
    page = session.new_page(
        profile.origin, shape is not None and shape.in_iframe, profile.option("bad_tls") == "1"
    )
    if shape is None:
        return page, ""
    page.forms["login"] = Form.trusted(
        "login",
        profile.login_action,
        shape.method,
        [Field("username", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)],
        shape.hooks,
    )
    return page, "login"


# ---------------------------------------------------------------------------
# servers
# ---------------------------------------------------------------------------


class _SiteState(NamedTuple):
    """A site's stored credential digests, or its relying party."""

    profile: SiteProfile
    # (field, digest of the value it must carry) for what the shape's hooks
    # make of the password: the password field first, then each field they
    # add; () on a fido2 site
    expected: tuple[tuple[str, str], ...]
    rp: Optional[RelyingParty] = None


def _first(entries: tuple[tuple[str, str], ...], name: str) -> str:
    """The first value sent under `name` ("" if none was)."""
    for n, v in entries:
        if n == name:
            return v
    return ""


class ServerFarm:
    """All reachable servers, keyed by origin (two origins are equal exactly
    when their strings are). A site keeps its password's digests, never the
    password, and no log of what it was sent."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._sites: dict[Origin, _SiteState] = {}
        self._captures: dict[Origin, list[str]] = {}

    def add_site(
        self, profile: SiteProfile, password: str, *, fido2_defense: bool = True
    ) -> _SiteState:
        shape = LOGIN_SHAPES.get(profile.category)
        if shape is None:  # a fido2 site
            rp = RelyingParty(
                profile.origin,
                substream(self.seed, "rp", profile.site_id),
                defense_enabled=fido2_defense,
            )
            state = _SiteState(profile, (), rp)
        else:
            entries = (("password", password),)
            for hook in shape.hooks:  # what the site's own page sends
                entries = hook.apply(entries)
            state = _SiteState(profile, tuple([(n, sha256_hex(v)) for n, v in entries]))
            self._sites[profile.login_action.origin] = state
        self._sites[profile.origin] = state
        return state

    def add_capture_origin(self, origin: Origin, sink: list[str]) -> None:
        """An attacker-controlled server that records everything it receives."""
        self._captures[origin] = sink

    # -- request handling ---------------------------------------------------

    def serve(self, request: WebRequestRecord) -> tuple[WebResponseRecord, str]:
        origin = request.url.origin
        sink = self._captures.get(origin)
        if sink is not None:
            sink.append(request.url.to_string())
            if request.body is not None:
                sink.append(request.body.raw.decode("utf-8", errors="replace"))
            return tuple.__new__(WebResponseRecord, (request.request_id, 200, (), b"captured")), "captured"
        state = self._sites.get(origin)
        if state is None:
            raise UnknownEndpoint(f"no server at {origin}")
        if state.rp is not None:
            return self._serve_fido2(state.rp, request)
        return self._serve_login(state, request)

    @staticmethod
    def _request_entries(request: WebRequestRecord) -> tuple[tuple[str, str], ...]:
        if request.method == "GET":
            return request.url.query
        return request.body.entries if request.body is not None else ()

    def _serve_login(
        self, state: _SiteState, request: WebRequestRecord
    ) -> tuple[WebResponseRecord, str]:
        profile = state.profile
        path = request.url.path
        entries = self._request_entries(request)

        if path == REFLECT_PATH and LOGIN_SHAPES[profile.category].reflects:
            reflect = profile.option("reflect", "all")
            if reflect == "all":
                echoed = entries
            else:
                wanted = set(reflect.split("+"))
                echoed = tuple((n, v) for n, v in entries if n in wanted)
            body = "\n".join(f"{n}={v}" for n, v in echoed).encode("utf-8")
            return tuple.__new__(WebResponseRecord, (request.request_id, 200, (), body)), "reflected"

        if path != LOGIN_PATH:
            return tuple.__new__(WebResponseRecord, (request.request_id, 404, (), b"not found")), "not_found"

        verdict = self._login_verdict(state.expected, entries)
        status = 200 if verdict == "auth_ok" else 403
        response = tuple.__new__(WebResponseRecord, (request.request_id, status, (), _LOGIN_BODIES[verdict]))
        return response, verdict

    @staticmethod
    def _login_verdict(
        expected: tuple[tuple[str, str], ...], entries: tuple[tuple[str, str], ...]
    ) -> str:
        """Each field the site's hooks add must match, then the password."""
        for name, digest in expected[1:]:
            if sha256_hex(_first(entries, name)) != digest:
                return "integrity_fail"
        name, digest = expected[0]
        return "auth_ok" if sha256_hex(_first(entries, name)) == digest else "auth_fail"

    def _serve_fido2(
        self, rp: RelyingParty, request: WebRequestRecord
    ) -> tuple[WebResponseRecord, str]:
        path = request.url.path
        if path == BEGIN_PATH and request.method == "GET":
            kind = _first(request.url.query, "kind")
            response = rp.begin(kind, _first(request.url.query, "username"), request.request_id)
            return response, f"begin:{kind}"
        if path == FINISH_PATH and request.method == "POST":
            result = rp.finish(request)
            verdict = "accepted" if result.accepted else f"rejected:{result.reason}"
            body = verdict.encode("ascii")
            status = 200 if result.accepted else 403
            return tuple.__new__(WebResponseRecord, (request.request_id, status, (), body)), verdict
        return tuple.__new__(WebResponseRecord, (request.request_id, 404, (), b"not found")), "not_found"


class World:
    """A server farm, which other worlds may share, and the one session it serves,
    in one mode, pinning on or off. Every login starts with `open`: the first builds
    the session, its FIDO2 side drawn from its seed and name; later ones reset it."""

    def __init__(
        self, mode: DefenseMode, farm: Optional[ServerFarm] = None, *, pinning: bool = True
    ) -> None:
        self.mode = mode
        self.farm = ServerFarm() if farm is None else farm
        self.pinning = pinning
        self.session: Optional[BrowserSession] = None

    def open(
        self, profile: SiteProfile, entry: Optional[VaultEntry], seed: int, name: str
    ) -> tuple[Page, str]:
        """Start a login (streams from seed and name, the entry its vault) and build its page."""
        vault = () if entry is None else (entry,)
        if self.session is None:
            self.session = BrowserSession(
                seed, self.mode, vault, self.farm.serve, name=name, pinning_enabled=self.pinning
            )
        else:
            self.session.reset(seed, vault, name=name)
        return build_login_page(self.session, profile)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def build_fixture_corpus() -> list[SiteProfile]:
    """The default corpus: `FIXTURE_COUNTS` sites of each category."""
    return list(_fixture_corpus())


@cache
def _fixture_corpus() -> tuple[SiteProfile, ...]:
    """Built once: a profile is frozen, so every fixture run shares it."""
    profiles: list[SiteProfile] = []
    for category, count in FIXTURE_COUNTS.items():
        for index in range(count):
            site_id = f"{_FIXTURE_TAGS[category]}-{index:03d}"
            profiles.append(SiteProfile(site_id, category, Origin("https", f"{site_id}.example", 443)))
    return tuple(profiles)


# corpus option key -> (the categories whose rows read it, its allowed
# values); password: the site's password; reflect: 'all' or non-empty names
# joined by '+'
CORPUS_OPTIONS: OptionTable = {
    "password": (LOGIN_CATEGORIES, None),
    "bad_tls": (LOGIN_CATEGORIES, ("0", "1")),
    "reflect": (tuple(c for c, shape in LOGIN_SHAPES.items() if shape.reflects), None),
}


def parse_corpus(path: str | Path) -> list[SiteProfile]:
    """Parse a tab-separated corpus file.

    Line format: category <TAB> origin <TAB> options, where options is '-'
    or comma-separated key=value pairs from CORPUS_OPTIONS that the row's
    category reads. Blank lines and '#' comments skip. `fido2` is not a
    corpus category: the survey compares password logins.
    """
    profiles: list[SiteProfile] = []
    for number, (category, origin_text, options_text) in read_rows(path, 3, CorpusFormatError):
        if category not in LOGIN_CATEGORIES:
            raise CorpusFormatError(number, f"unknown category {category!r}")
        try:
            origin = Origin.parse(origin_text)
        except ValueError as exc:
            raise CorpusFormatError(number, f"bad origin {origin_text!r}: {exc}") from exc
        options = parse_options(
            options_text, CORPUS_OPTIONS, category, number, CorpusFormatError
        )
        profile = SiteProfile(f"line{number}-{origin.host}", category, origin, options)
        reflect = profile.option("reflect", "all")
        if reflect != "all" and "" in reflect.split("+"):
            raise CorpusFormatError(number, f"bad reflect {reflect!r}: a field name is empty")
        profiles.append(profile)
    return profiles


# ---------------------------------------------------------------------------
# compatibility evaluation
# ---------------------------------------------------------------------------


class CompatRecord(NamedTuple):
    site_id: str
    category: str
    classification: str  # compatible | hash_broken | transform_broken |
    # incompatible | refused | excluded; an excluded site has no other field
    wire_identical: Optional[bool] = None
    verdict_baseline: Optional[str] = None
    verdict_defended: Optional[str] = None
    password_on_wire: Optional[bool] = None
    refused_check: Optional[int] = None  # the check that refused the swap


class CompatReport(NamedTuple):
    """The survey's records. A `refused` row is one whose defended login the
    policy refused by design (say, a plain-HTTP or bad-TLS origin): it is
    neither compatible nor in the plain-POST differential."""

    seed: int
    defense: DefenseMode
    records: list[CompatRecord]
    fixture: bool = False  # the records are of the built-in fixture corpus

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for record in self.records:
            bucket = out.setdefault(record.category, {})
            bucket[record.classification] = bucket.get(record.classification, 0) + 1
        return out

    def included_total(self) -> int:
        return sum(1 for r in self.records if r.classification != "excluded")

    def excluded(self) -> list[str]:
        return [r.site_id for r in self.records if r.classification == "excluded"]

    def refused(self) -> dict[str, int]:
        """The refused rows' site ids, each with the check that refused it."""
        return {r.site_id: r.refused_check for r in self.records if r.classification == "refused"}

    def percentage(self, classification: str) -> float:
        total = self.included_total()
        if total == 0:
            return 0.0
        hits = sum(1 for r in self.records if r.classification == classification)
        return round(100.0 * hits / total, 1)

    def plain_differential_ok(self) -> bool:
        return all(
            r.wire_identical
            for r in self.records
            if r.category == "plain_post" and r.classification not in ("excluded", "refused")
        )

    def to_json(self) -> dict:
        payload = {
            "kind": "compat",
            "seed": self.seed,
            "defense": self.defense.value,
            "included": self.included_total(),
            "excluded": self.excluded(),
            "counts": self.counts(),
            "percent": {
                "compatible": self.percentage("compatible"),
                "hash_broken": self.percentage("hash_broken"),
                "transform_broken": self.percentage("transform_broken"),
                "incompatible": self.percentage("incompatible"),
            },
            "plain_differential_ok": self.plain_differential_ok(),
        }
        if self.fixture:
            payload["note"] = "synthetic fixture corpus; proportions mirror a survey of real login flows"
        refused = self.refused()
        if refused:  # only corpus rows the policy refuses add the keys
            payload["percent"]["refused"] = self.percentage("refused")
            payload["refused"] = refused
        return payload

    def render_text(self) -> str:
        lines = [f"compatibility survey (defense={self.defense.value}, seed={self.seed})"]
        if self.fixture:
            shares = " / ".join(f"{n} {_FIXTURE_TAGS[c]}" for c, n in FIXTURE_COUNTS.items())
            lines += [
                "# corpus is a synthetic fixture; category proportions mirror a survey",
                f"# of real login flows ({shares} of {sum(FIXTURE_COUNTS.values())})",
            ]
        lines += ["", f"{'category':<22}{'sites':>6}{'compatible':>12}{'broken':>8}"]
        counts = self.counts()
        for category in sorted(counts):
            bucket = counts[category]
            sites = sum(bucket.values())
            compatible = bucket.get("compatible", 0)
            broken = sites - compatible - bucket.get("excluded", 0) - bucket.get("refused", 0)
            lines.append(f"{category:<22}{sites:>6}{compatible:>12}{broken:>8}")
        shares = (
            f"compatible: {self.percentage('compatible'):.1f}%  "
            f"hash-broken: {self.percentage('hash_broken'):.1f}%  "
            f"transform-broken: {self.percentage('transform_broken'):.1f}%"
        )
        refused = [f"{s} (check {c}, {CHECK_NAMES[c]})" for s, c in self.refused().items()]
        if refused:
            shares += f"  refused: {self.percentage('refused'):.1f}%"
        lines += ["", shares]
        if self.excluded():
            lines.append(f"excluded (password too short): {', '.join(self.excluded())}")
        if refused:
            lines.append(f"refused by the policy: {', '.join(refused)}")
        lines.append(
            "plain differential: "
            + ("byte-identical" if self.plain_differential_ok() else "MISMATCH")
        )
        return "\n".join(lines) + "\n"


def _login_once(
    world: World, profile: SiteProfile, entry: VaultEntry, seed: int
) -> tuple[Optional[bytes], Optional[str], Optional[int]]:
    """One login in a leg's world; returns the bytes the credentials rode in
    (a POST's body, a GET's query), verdict, refusing check."""
    page, form_id = world.open(profile, entry, seed, f"compat-{profile.site_id}-{world.mode.value}")
    world.session.autofill(page, form_id)
    result = world.session.submit(page, form_id)
    wire = result.wire
    if wire is not None and wire.method == "GET":
        sent = urlencode_entries(wire.url.query).encode("utf-8")
    else:
        sent = wire.body_bytes() if wire is not None else None
    return sent, result.verdict, result.transcript.refused_check()


def compat_evaluate(
    profiles: Sequence[SiteProfile],
    seed: int,
    defense: DefenseMode = DefenseMode.DESIGN5_API_LATE,
) -> CompatReport:
    """Dual-run differential: baseline vs defended, per site. The report
    of the built-in fixture corpus says so.

    One farm serves every site and both legs' worlds, and each login opens
    its leg's world. Sites with empty or shorter-than-4-character passwords
    are flagged and excluded from percentages rather than evaluated.
    """
    farm = ServerFarm(seed)
    baseline, defended = (World(mode, farm) for mode in (DefenseMode.BASELINE, defense))
    records: list[CompatRecord] = []
    for profile in profiles:
        entry = site_vault_entry(profile, seed)
        if len(entry.password) < MIN_PASSWORD_LEN:
            records.append(CompatRecord(profile.site_id, profile.category, "excluded"))
            continue
        farm.add_site(profile, entry.password)
        sent_a, verdict_a, _ = _login_once(baseline, profile, entry, seed)
        sent_b, verdict_b, refused_check = _login_once(defended, profile, entry, seed)
        wire_identical = sent_a == sent_b
        password_on_wire = sent_b is not None and holds_secret(
            (sent_b.decode("utf-8", errors="replace"),), entry.password
        )
        classification = _classify(
            LOGIN_SHAPES[profile.category], wire_identical, verdict_b, password_on_wire, refused_check
        )
        records.append(
            CompatRecord(
                profile.site_id, profile.category, classification, wire_identical,
                verdict_a, verdict_b, password_on_wire, refused_check,
            )
        )
    return CompatReport(seed, defense, records, tuple(profiles) == _fixture_corpus())


def _classify(
    shape: LoginShape,
    wire_identical: bool,
    verdict_b: Optional[str],
    password_on_wire: bool,
    refused_check: Optional[int],
) -> str:
    """A hook-free login must send the same bytes and log in. A hooked one
    must log in; a failed integrity field breaks its hash, and a failed
    password that kept the real one off the wire breaks its transform."""
    if refused_check is not None:  # the policy refused the swap by design
        return "refused"
    if not shape.hooks:
        return "compatible" if wire_identical and verdict_b == "auth_ok" else "incompatible"
    if verdict_b == "auth_ok":
        return "compatible"
    if verdict_b == "integrity_fail":
        return "hash_broken"
    return "transform_broken" if verdict_b == "auth_fail" and not password_on_wire else "incompatible"
