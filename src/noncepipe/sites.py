"""Synthetic sites: login endpoints, reflectors, and FIDO2 relying parties.

Eight site categories cover the behaviors that matter to nonce
substitution: plain POST logins, sites that hash or otherwise transform the
password before submitting, GET submitters, iframe logins, plain-HTTP
submitters, reflectors, and FIDO2 sites. Servers store and log credential
digests only, never raw secrets.

The compatibility corpus is a synthetic fixture whose category proportions
(554 plain, 11 hash, 8 transform out of 573) mirror a survey of real login
forms; reports say so explicitly.
"""

from __future__ import annotations

import base64
from collections import namedtuple
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .dom import Field, FieldKind, Form, HookKind, Page, SubmitHook
from .fido2 import BEGIN_PATH, FINISH_PATH, RelyingParty
from .http_model import Origin, Url, WebRequestRecord, WebResponseRecord, checked_make, read_only, sha256_hex
from .http_model import holds_secret, urlencode_entries
from .manager import VaultEntry
from .pipeline import CHECK_NAMES, DefenseMode
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
    "REFLECT_PATH",
    "ServerFarm",
    "SiteProfile",
    "UnknownEndpoint",
    "build_fixture_corpus",
    "build_login_page",
    "compat_evaluate",
    "generate_password",
    "parse_corpus",
    "site_vault_entry",
]

CATEGORIES = (
    "plain_post",
    "hashes_password",
    "transforms_password",
    "get_submit",
    "iframe_login",
    "http_submit",
    "reflecting",
    "fido2",
)
# the categories that serve a password login form
LOGIN_CATEGORIES = tuple(c for c in CATEGORIES if c != "fido2")

# where a login form posts, and where a reflecting site echoes what it gets
LOGIN_PATH = "/login"
REFLECT_PATH = "/reflect"

# fixture corpus proportions: 554 + 11 + 8 = 573 login flows
FIXTURE_COUNTS = {"plain_post": 554, "hashes_password": 11, "transforms_password": 8}

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
        if category not in CATEGORIES:
            raise ValueError(f"unknown site category {category!r}")
        return tuple.__new__(cls, (site_id, category, origin, options))

    def option(self, key: str, default: str = "") -> str:
        for name, value in self.options:
            if name == key:
                return value
        return default

    @cached_property
    def login_action(self) -> Url:
        """Where the login form posts, built once and shared by every page
        (a Url is frozen; a script retargets a form by replacing it)."""
        submit = _submit_origin(self)
        return Url(submit.scheme, submit.host, submit.port, LOGIN_PATH)


def generate_password(seed: int, site_id: str) -> str:
    """12 characters of `_PASSWORD_ALPHABET` from the site's vault stream."""
    return substream(seed, "vault", site_id).string(_PASSWORD_ALPHABET, 12)


def site_vault_entry(profile: SiteProfile, seed: int) -> VaultEntry:
    """The user's stored credential for a site (password option overrides,
    even when empty: `compat_evaluate` then excludes the site)."""
    password = dict(profile.options).get("password")
    if password is None:
        password = generate_password(seed, profile.site_id)
    return VaultEntry(profile.origin, "alice", password)


# ---------------------------------------------------------------------------
# page construction
# ---------------------------------------------------------------------------


def _submit_origin(profile: SiteProfile) -> Origin:
    """Where the site's login form posts: http_submit sites use plain HTTP."""
    if profile.category == "http_submit":
        return Origin("http", profile.origin.host, 80)
    return profile.origin


def build_login_page(session: BrowserSession, profile: SiteProfile) -> tuple[Page, str]:
    """Create the site's login page inside a session; returns (page, form_id)."""
    page = session.new_page(
        profile.origin,
        is_iframe=profile.category == "iframe_login",
        bad_tls=profile.option("bad_tls") == "1",
    )
    if profile.category == "fido2":
        return page, ""

    form = Form(
        "login",
        profile.login_action,
        "GET" if profile.category == "get_submit" else "POST",
        [Field("username", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)],
    )
    if profile.category == "hashes_password":
        # the site copies the password into a hidden integrity field and
        # hashes it client-side before submitting
        form.submit_hooks.append(
            SubmitHook(kind=HookKind.COPY_FIELD, field_name="password", target="pw_hash")
        )
        form.submit_hooks.append(SubmitHook(kind=HookKind.SHA256_FIELD, field_name="pw_hash"))
    elif profile.category == "transforms_password":
        form.submit_hooks.append(SubmitHook(kind=HookKind.BASE64_FIELD, field_name="password"))
    page.add_form(form)
    return page, "login"


# ---------------------------------------------------------------------------
# servers
# ---------------------------------------------------------------------------


class _SiteState(NamedTuple):
    """A site's stored credential digests, each only if its login reads it."""

    profile: SiteProfile
    # the digest of what the password field must carry: the password, or
    # its base64 form on a transforms_password site ("" on a fido2 site)
    password_digest: str
    hash_digest: str  # of password_digest, on a hashes_password site ("" else)
    rp: Optional[RelyingParty] = None


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
        category = profile.category
        rp = None
        if category == "fido2":
            rp = RelyingParty(
                profile.origin,
                substream(self.seed, "rp", profile.site_id),
                defense_enabled=fido2_defense,
            )
        elif category == "transforms_password":
            password = base64.b64encode(password.encode("utf-8")).decode("ascii")
        password_digest = "" if rp is not None else sha256_hex(password)
        hash_digest = sha256_hex(password_digest) if category == "hashes_password" else ""
        state = _SiteState(profile, password_digest, hash_digest, rp)
        self._sites[profile.origin] = state
        self._sites[_submit_origin(profile)] = state
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
            return (
                WebResponseRecord(request.request_id, 200, (), b"captured"),
                "captured",
            )
        state = self._sites.get(origin)
        if state is None:
            raise UnknownEndpoint(f"no server at {origin}")
        if state.profile.category == "fido2":
            return self._serve_fido2(state, request)
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

        if path == REFLECT_PATH and profile.category == "reflecting":
            reflect = profile.option("reflect", "all")
            if reflect == "all":
                echoed = entries
            else:
                wanted = set(reflect.split("+"))
                echoed = tuple((n, v) for n, v in entries if n in wanted)
            body = "\n".join(f"{n}={v}" for n, v in echoed).encode("utf-8")
            return WebResponseRecord(request.request_id, 200, (), body), "reflected"

        if path != LOGIN_PATH:
            return WebResponseRecord(request.request_id, 404, (), b"not found"), "not_found"

        password = next((v for n, v in entries if n == "password"), "")
        verdict = self._login_verdict(state, entries, password)
        status = 200 if verdict == "auth_ok" else 403
        return WebResponseRecord(request.request_id, status, (), _LOGIN_BODIES[verdict]), verdict

    def _login_verdict(
        self, state: _SiteState, entries: tuple[tuple[str, str], ...], password: str
    ) -> str:
        if state.profile.category == "hashes_password":
            pw_hash = next((v for n, v in entries if n == "pw_hash"), "")
            if sha256_hex(pw_hash) != state.hash_digest:
                return "integrity_fail"
        return "auth_ok" if sha256_hex(password) == state.password_digest else "auth_fail"

    def _serve_fido2(
        self, state: _SiteState, request: WebRequestRecord
    ) -> tuple[WebResponseRecord, str]:
        rp = state.rp
        assert rp is not None
        path = request.url.path
        if path == BEGIN_PATH and request.method == "GET":
            kind = next((v for n, v in request.url.query if n == "kind"), "")
            username = next((v for n, v in request.url.query if n == "username"), "")
            response = rp.begin(kind, username, request.request_id)
            return response, f"begin:{kind}"
        if path == FINISH_PATH and request.method == "POST":
            result = rp.finish(request)
            verdict = "accepted" if result.accepted else f"rejected:{result.reason}"
            body = verdict.encode("ascii")
            return WebResponseRecord(request.request_id, 200 if result.accepted else 403, (), body), verdict
        return WebResponseRecord(request.request_id, 404, (), b"not found"), "not_found"


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def build_fixture_corpus() -> list[SiteProfile]:
    """The default 573-site corpus: 554 plain, 11 hash, 8 transform."""
    profiles: list[SiteProfile] = []
    for category, count in FIXTURE_COUNTS.items():
        tag = {
            "plain_post": "plain",
            "hashes_password": "hash",
            "transforms_password": "transform",
        }[category]
        for index in range(count):
            site_id = f"{tag}-{index:03d}"
            profiles.append(
                SiteProfile(
                    site_id=site_id,
                    category=category,
                    origin=Origin("https", f"{site_id}.example", 443),
                )
            )
    return profiles


# corpus option key -> (the categories whose rows read it, its allowed
# values); password: the site's password; reflect: 'all' or non-empty names
# joined by '+'
CORPUS_OPTIONS: OptionTable = {
    "password": (LOGIN_CATEGORIES, None),
    "bad_tls": (LOGIN_CATEGORIES, ("0", "1")),
    "reflect": (("reflecting",), None),
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
        reflect = dict(options).get("reflect", "all")
        if reflect != "all" and "" in reflect.split("+"):
            raise CorpusFormatError(number, f"bad reflect {reflect!r}: a field name is empty")
        profiles.append(
            SiteProfile(
                site_id=f"line{number}-{origin.host}",
                category=category,
                origin=origin,
                options=options,
            )
        )
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
            "note": "synthetic fixture corpus; proportions mirror a survey of real login flows",
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
        refused = self.refused()
        if refused:  # only corpus rows the policy refuses add the keys
            payload["percent"]["refused"] = self.percentage("refused")
            payload["refused"] = refused
        return payload

    def render_text(self) -> str:
        lines = [
            f"compatibility survey (defense={self.defense.value}, seed={self.seed})",
            "# corpus is a synthetic fixture; category proportions mirror a survey",
            "# of real login flows (554 plain / 11 hash / 8 transform of 573)",
            "",
            f"{'category':<22}{'sites':>6}{'compatible':>12}{'broken':>8}",
        ]
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
    session: BrowserSession, profile: SiteProfile, entry: VaultEntry, seed: int
) -> tuple[Optional[bytes], Optional[str], Optional[int]]:
    """One login in a leg's session, reset for it; returns the bytes the credentials
    rode in (a POST's body, a GET's query), verdict, refusing check."""
    session.reset(seed, [entry], name=f"compat-{profile.site_id}-{session.defense_mode.value}")
    page, form_id = build_login_page(session, profile)
    session.autofill(page, form_id)
    result = session.submit(page, form_id)
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
    """Dual-run differential: baseline vs defended, per site.

    One farm serves every site, and one session per leg, reset for each login.
    Sites with empty or shorter-than-4-character passwords are flagged and
    excluded from percentages rather than evaluated.
    """
    farm = ServerFarm(seed)
    baseline, defended = (
        BrowserSession(seed, mode, (), farm.serve) for mode in (DefenseMode.BASELINE, defense)
    )
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
        records.append(
            CompatRecord(
                site_id=profile.site_id,
                category=profile.category,
                classification=_classify(
                    profile.category,
                    wire_identical,
                    verdict_a,
                    verdict_b,
                    password_on_wire,
                    refused_check,
                ),
                wire_identical=wire_identical,
                verdict_baseline=verdict_a,
                verdict_defended=verdict_b,
                password_on_wire=password_on_wire,
                refused_check=refused_check,
            )
        )
    return CompatReport(seed=seed, defense=defense, records=records)


def _classify(
    category: str,
    wire_identical: bool,
    verdict_a: Optional[str],
    verdict_b: Optional[str],
    password_on_wire: bool,
    refused_check: Optional[int],
) -> str:
    if refused_check is not None:  # the policy refused the swap by design
        return "refused"
    if category == "plain_post":
        return "compatible" if wire_identical and verdict_b == "auth_ok" else "incompatible"
    if category == "hashes_password":
        if verdict_b == "auth_ok":
            return "compatible"
        return "hash_broken" if verdict_b == "integrity_fail" else "incompatible"
    if category == "transforms_password":
        if verdict_b == "auth_ok":
            return "compatible"
        return (
            "transform_broken"
            if verdict_b == "auth_fail" and not password_on_wire
            else "incompatible"
        )
    return "compatible" if verdict_a == verdict_b else "incompatible"
