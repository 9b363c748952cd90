"""Extension host: installation, listener rules, the nonce store gate."""

import pytest

from noncepipe.dom import Page
from noncepipe.extensions import (
    ExtensionHost,
    ExtensionManifest,
    InvalidBlockingStage,
    Permission,
    PermissionDenied,
)
from noncepipe.http_model import Origin
from noncepipe.pipeline import NonceRecord, Stage, VaultEntry

ORIGIN = Origin("https", "bank.example", 443)


def page(page_id="p1") -> Page:
    return Page(page_id=page_id, origin=ORIGIN)


def manifest(*permissions, ext_id="ext") -> ExtensionManifest:
    return ExtensionManifest(extension_id=ext_id, permissions=frozenset(permissions))


# ---------------------------------------------------------------------------
# host: install
# ---------------------------------------------------------------------------


def test_install_rejects_duplicate_id():
    host = ExtensionHost()
    host.install(manifest(ext_id="dup"))
    with pytest.raises(ValueError):
        host.install(manifest(ext_id="dup"))


def test_get_unknown_extension():
    with pytest.raises(KeyError):
        ExtensionHost().get("ghost")


# ---------------------------------------------------------------------------
# listener registration
# ---------------------------------------------------------------------------


def test_register_listener_requires_webrequest_permission():
    host = ExtensionHost()
    host.install(manifest(Permission.SECRETS))
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


def test_uninstall_removes_exactly_the_named_extensions_listeners():
    host = ExtensionHost()
    host.install(manifest(Permission.WEB_REQUEST, ext_id="a"))
    host.install(manifest(Permission.WEB_REQUEST, ext_id="b"))
    kept = [
        host.register_listener("b", Stage.ON_BEFORE_REQUEST, lambda v: None),
        host.register_listener("b", Stage.ON_COMPLETED, lambda v: None),
    ]
    for stage in (Stage.ON_BEFORE_REQUEST, Stage.ON_SEND_HEADERS, Stage.ON_COMPLETED):
        host.register_listener("a", stage, lambda v: None)
    kept.append(host.register_listener("b", Stage.ON_BEFORE_REQUEST, lambda v: None))

    host.uninstall("a")

    assert list(host.extensions) == ["b"]
    assert [r for stage in Stage for r in host.registry.at(stage)] == [kept[0], kept[2], kept[1]]
    assert host.registry.at(Stage.ON_SEND_HEADERS) == ()
    with pytest.raises(KeyError):
        host.get("a")
    with pytest.raises(KeyError):
        host.uninstall("a")
    # a number below a kept listener's is never handed out again; the last ones are
    assert host.register_listener("b", Stage.ON_SEND_HEADERS, lambda v: None).listener_id == "b.L7"
    host.install(manifest(Permission.WEB_REQUEST, ext_id="c"))
    host.register_listener("c", Stage.ON_COMPLETED, lambda v: None)
    host.uninstall("c")
    assert host.register_listener("b", Stage.ON_COMPLETED, lambda v: None).listener_id == "b.L8"


def test_uninstall_keeps_the_tuple_of_every_stage_the_extension_never_listened_at():
    host = ExtensionHost()
    host.install(manifest(Permission.WEB_REQUEST, ext_id="a"))
    host.install(manifest(Permission.WEB_REQUEST, ext_id="b"))
    for stage in Stage:
        host.register_listener("b", stage, lambda v: None)
    listened = (Stage.ON_BEFORE_REQUEST, Stage.ON_COMPLETED)
    for stage in listened:
        host.register_listener("a", stage, lambda v: None)
    before = {stage: host.registry.at(stage) for stage in Stage}

    host.uninstall("a")

    for stage in Stage:
        if stage in listened:
            assert host.registry.at(stage) == before[stage][:-1]
        else:
            assert host.registry.at(stage) is before[stage], stage


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
