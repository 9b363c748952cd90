"""Extension host: injection capability, listener rules, the nonce store gate."""

import pytest

from noncepipe.dom import Page, Provenance
from noncepipe.extensions import (
    ExtensionHost,
    ExtensionManifest,
    InvalidBlockingStage,
    Permission,
    PermissionDenied,
    can_inject,
    match_pattern,
)
from noncepipe.http_model import Origin
from noncepipe.pipeline import NonceRecord, Stage, VaultEntry

ORIGIN = Origin("https", "bank.example", 443)


def page(host="bank.example", scheme="https", page_id="p1") -> Page:
    return Page(page_id=page_id, origin=Origin(scheme, host, 443 if scheme == "https" else 80))


def manifest(*permissions, patterns=(), ext_id="ext") -> ExtensionManifest:
    return ExtensionManifest(
        extension_id=ext_id,
        permissions=frozenset(permissions),
        content_script_patterns=tuple(patterns),
    )


# ---------------------------------------------------------------------------
# host patterns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern,host,expected",
    [
        ("<all_urls>", "any.example", True),
        ("https://bank.example/", "bank.example", True),
        ("https://bank.example", "bank.example", True),
        ("https://bank.example/", "evil.example", False),
        ("*://bank.example/", "bank.example", True),
        ("https://*.example/", "bank.example", True),
        ("https://*.example/", "example", True),  # apex matches "*." too
        ("https://*.bank.example/", "login.bank.example", True),
        ("https://*.bank.example/", "bank.example", True),
        ("https://*.bank.example/", "notbank.example", False),
        ("https://*/", "anything.example", True),
        ("garbage-no-scheme", "bank.example", False),
    ],
)
def test_match_pattern(pattern, host, expected):
    assert match_pattern(pattern, page(host=host)) is expected


def test_match_pattern_scheme_must_agree():
    http_page = page(scheme="http")
    assert match_pattern("https://bank.example/", http_page) is False
    assert match_pattern("*://bank.example/", http_page) is True


# ---------------------------------------------------------------------------
# injection capability
# ---------------------------------------------------------------------------


def test_scripting_needs_matching_pattern():
    m = manifest(Permission.SCRIPTING, patterns=("https://bank.example/",))
    assert can_inject(m, page()) is True
    assert can_inject(m, page(host="other.example")) is False


def test_scripting_without_patterns_cannot_inject():
    assert can_inject(manifest(Permission.SCRIPTING), page()) is False


def test_active_tab_needs_user_gesture():
    m = manifest(Permission.ACTIVE_TAB)
    assert can_inject(m, page()) is False
    assert can_inject(m, page(), active_tab_granted=True) is True


def test_declarative_net_request_can_always_inject():
    # body-rewriting rules can smuggle script into any proxied page
    assert can_inject(manifest(Permission.DECLARATIVE_NET_REQUEST), page()) is True


def test_webrequest_only_cannot_inject_anywhere():
    m = manifest(Permission.WEB_REQUEST)
    for host in ("bank.example", "other.example"):
        assert can_inject(m, page(host=host)) is False
        assert can_inject(m, page(host=host), active_tab_granted=True) is False


def test_no_permissions_no_injection():
    assert can_inject(manifest(), page()) is False


# ---------------------------------------------------------------------------
# host: install and inject
# ---------------------------------------------------------------------------


def test_install_rejects_duplicate_id():
    host = ExtensionHost()
    host.install(manifest(ext_id="dup"))
    with pytest.raises(ValueError):
        host.install(manifest(ext_id="dup"))


def test_get_unknown_extension():
    with pytest.raises(KeyError):
        ExtensionHost().get("ghost")


def test_inject_script_attaches_and_tracks():
    host = ExtensionHost()
    ext = host.install(manifest(Permission.SCRIPTING, patterns=("<all_urls>",)))
    target = page()
    script = host.inject_script("ext", target)
    assert script in target.scripts
    assert script in ext.scripts
    assert script.provenance is Provenance.EXTENSION
    assert script.extension_id == "ext"


def test_inject_script_denied_without_capability():
    host = ExtensionHost()
    host.install(manifest(Permission.WEB_REQUEST))
    with pytest.raises(PermissionDenied):
        host.inject_script("ext", page())


def test_active_tab_grant_is_per_page():
    host = ExtensionHost()
    host.install(manifest(Permission.ACTIVE_TAB))
    granted = page(page_id="granted")
    other = page(page_id="other")
    host.grant_active_tab("ext", granted)
    assert host.can_inject("ext", granted) is True
    assert host.can_inject("ext", other) is False


# ---------------------------------------------------------------------------
# listener registration
# ---------------------------------------------------------------------------


def test_register_listener_requires_webrequest_permission():
    host = ExtensionHost()
    host.install(manifest(Permission.SCRIPTING))
    with pytest.raises(PermissionDenied):
        host.register_listener("ext", Stage.ON_BEFORE_REQUEST, lambda v: None)


def test_blocking_limited_to_first_two_stages():
    host = ExtensionHost()
    host.install(manifest(Permission.WEB_REQUEST))
    for stage in (Stage.ON_BEFORE_REQUEST, Stage.ON_BEFORE_SEND_HEADERS):
        host.register_listener("ext", stage, lambda v: None, blocking=True)
    for stage in (
        Stage.ON_SEND_HEADERS,
        Stage.ON_REQUEST_CREDENTIALS,
        Stage.ON_HEADERS_RECEIVED,
        Stage.ON_RESPONSE_STARTED,
        Stage.ON_COMPLETED,
    ):
        with pytest.raises(InvalidBlockingStage):
            host.register_listener("ext", stage, lambda v: None, blocking=True)


def test_listener_sink_is_extension_observation_log():
    host = ExtensionHost()
    ext = host.install(manifest(Permission.WEB_REQUEST))
    reg = host.register_listener("ext", Stage.ON_SEND_HEADERS, lambda v: None)
    assert reg.sink is ext.views
    assert reg.blocking is False
    assert reg.extension_id == "ext"
    # the trusted manager, the one holder of `secrets`, keeps no views
    host.install(manifest(Permission.WEB_REQUEST, Permission.SECRETS, ext_id="manager"))
    assert host.register_listener("manager", Stage.ON_SEND_HEADERS, lambda v: None).sink is None


def test_listener_ids_default_to_counter():
    host = ExtensionHost()
    host.install(manifest(Permission.WEB_REQUEST))
    a = host.register_listener("ext", Stage.ON_BEFORE_REQUEST, lambda v: None)
    b = host.register_listener("ext", Stage.ON_COMPLETED, lambda v: None)
    assert (a.listener_id, b.listener_id) == ("ext.L1", "ext.L2")
    assert len(host.registry) == 2


# ---------------------------------------------------------------------------
# nonce store
# ---------------------------------------------------------------------------


def nonce_record() -> NonceRecord:
    entry = VaultEntry(ORIGIN, "alice", "real-secret")
    return NonceRecord(
        "NONCE0123456789A", entry, "login", "pw", in_iframe=False, pinning_enabled=True
    )


def test_register_nonce_requires_secrets_permission():
    # only a `secrets` holder is handed the store it could write to
    host = ExtensionHost()
    assert host.install(manifest(Permission.WEB_REQUEST)).nonces is None
    assert host.install(manifest(Permission.SECRETS, ext_id="manager")).nonces is host.nonces


def test_registry_scopes_substitutions_by_page():
    host = ExtensionHost()
    record, p1 = nonce_record(), page(page_id="p1")
    host.install(manifest(Permission.SECRETS)).nonces.add(p1, record)
    assert host.nonces.page("p1").records == {"NONCE0123456789A": record}
    assert host.nonces.page("p2") is None
    assert "NONCE0123456789A" in host.nonces
