"""Extension host: permissions, script injection, listener registration.

Capabilities are pure functions of the manifest's permission set plus, for
activeTab, whether the user invoked the extension on that page. Extension
state is isolated: no extension can reach another's store, ever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from .dom import Page, Provenance, ScriptHandle, attach_script
from .pipeline import (
    BLOCKING_STAGES,
    ListenerCallback,
    ListenerRegistration,
    ListenerRegistry,
    NonceRecord,
    Stage,
    StageView,
)

__all__ = [
    "Extension",
    "ExtensionHost",
    "ExtensionManifest",
    "InvalidBlockingStage",
    "IsolationViolation",
    "NonceRegistry",
    "Permission",
    "PermissionDenied",
    "can_inject",
    "match_pattern",
]


class Permission(Enum):
    SCRIPTING = "scripting"
    ACTIVE_TAB = "activeTab"
    DECLARATIVE_NET_REQUEST = "declarativeNetRequest"
    WEB_REQUEST = "webRequest"
    SECRETS = "secrets"


class PermissionDenied(PermissionError):
    pass


class InvalidBlockingStage(ValueError):
    """Blocking listeners exist only at the first two request stages."""


class IsolationViolation(PermissionError):
    """One extension touched another's private state."""


@dataclass(frozen=True)
class ExtensionManifest:
    extension_id: str
    permissions: frozenset[Permission] = frozenset()
    content_script_patterns: tuple[str, ...] = ()

    def has(self, permission: Permission) -> bool:
        return permission in self.permissions


def match_pattern(pattern: str, page: Page) -> bool:
    """Host-pattern match against a page origin.

    Supports "<all_urls>", exact hosts, and a leading "*." label that
    matches the apex and any subdomain. Ports are not part of patterns.
    """
    if pattern == "<all_urls>":
        return True
    scheme, sep, rest = pattern.partition("://")
    if not sep:
        return False
    if scheme not in ("*", page.origin.scheme):
        return False
    host_pattern = rest.rstrip("/")
    host = page.origin.host
    if host_pattern == "*":
        return True
    if host_pattern.startswith("*."):
        apex = host_pattern[2:]
        return host == apex or host.endswith("." + apex)
    return host == host_pattern


def can_inject(
    manifest: ExtensionManifest, page: Page, *, active_tab_granted: bool = False
) -> bool:
    """Whether this manifest could run script in the page's DOM.

    scripting needs a matching host pattern; activeTab needs a user
    invocation on that page; declarativeNetRequest can rewrite response
    bodies and therefore smuggle script into any page it proxies.
    """
    if manifest.has(Permission.SCRIPTING) and any(
        match_pattern(p, page) for p in manifest.content_script_patterns
    ):
        return True
    if manifest.has(Permission.ACTIVE_TAB) and active_tab_granted:
        return True
    if manifest.has(Permission.DECLARATIVE_NET_REQUEST):
        return True
    return False


@dataclass(eq=False)
class Extension:
    """Installed extension: manifest plus isolated runtime state.

    The pipeline appends every view this extension's listeners were shown
    to `views`; scripts it injected log their own reads. Leak analysis
    later scans both.
    """

    manifest: ExtensionManifest
    store: dict[str, object] = field(default_factory=dict)
    views: list[StageView] = field(default_factory=list)
    scripts: list[ScriptHandle] = field(default_factory=list)

    @property
    def extension_id(self) -> str:
        return self.manifest.extension_id

    @property
    def observations(self) -> list[str]:
        """Everything the listeners could copy out of their views, in
        delivery order; built when read, not as views arrive."""
        return [text for view in self.views for text in view.visible_strings()]


class ExtensionHost:
    """Browser-side broker for everything extensions are allowed to do."""

    def __init__(self) -> None:
        self.extensions: dict[str, Extension] = {}
        self.registry = ListenerRegistry()
        self._active_tab_grants: set[tuple[str, str]] = set()
        self._listener_count = 0

    # -- installation and DOM access ------------------------------------

    def install(self, manifest: ExtensionManifest) -> Extension:
        if manifest.extension_id in self.extensions:
            raise ValueError(f"extension {manifest.extension_id!r} already installed")
        ext = Extension(manifest)
        self.extensions[manifest.extension_id] = ext
        return ext

    def get(self, extension_id: str) -> Extension:
        try:
            return self.extensions[extension_id]
        except KeyError:
            raise KeyError(f"no extension {extension_id!r} installed") from None

    def grant_active_tab(self, extension_id: str, page: Page) -> None:
        """Record a user gesture invoking the extension on this page."""
        self.get(extension_id)
        self._active_tab_grants.add((extension_id, page.page_id))

    def can_inject(self, extension_id: str, page: Page) -> bool:
        ext = self.get(extension_id)
        granted = (extension_id, page.page_id) in self._active_tab_grants
        return can_inject(ext.manifest, page, active_tab_granted=granted)

    def inject_script(
        self, extension_id: str, page: Page, script_id: Optional[str] = None
    ) -> ScriptHandle:
        ext = self.get(extension_id)
        if not self.can_inject(extension_id, page):
            raise PermissionDenied(
                f"{extension_id} cannot inject into {page.origin} (permissions "
                f"{sorted(p.value for p in ext.manifest.permissions)})"
            )
        script = ScriptHandle(
            script_id=script_id or f"{extension_id}.content",
            provenance=Provenance.EXTENSION,
            extension_id=extension_id,
        )
        attach_script(page, script)
        ext.scripts.append(script)
        return script

    # -- webRequest listeners --------------------------------------------

    def register_listener(
        self,
        extension_id: str,
        stage: Stage,
        callback: ListenerCallback,
        *,
        blocking: bool = False,
        listener_id: Optional[str] = None,
    ) -> ListenerRegistration:
        ext = self.get(extension_id)
        if not ext.manifest.has(Permission.WEB_REQUEST):
            raise PermissionDenied(f"{extension_id} lacks the webRequest permission")
        if blocking and stage not in BLOCKING_STAGES:
            raise InvalidBlockingStage(
                f"blocking listeners are limited to "
                f"{[s.value for s in BLOCKING_STAGES]}, got {stage.value}"
            )
        self._listener_count += 1
        registration = ListenerRegistration(
            listener_id=listener_id or f"{extension_id}.L{self._listener_count}",
            extension_id=extension_id,
            stage=stage,
            blocking=blocking,
            callback=callback,
            sink=ext.views,
        )
        self.registry.add(registration)
        return registration

    # -- state isolation --------------------------------------------------

    def cross_extension_access(self, requester_id: str, owner_id: str) -> dict[str, object]:
        """Return an extension's store to itself; anyone else is refused."""
        self.get(owner_id)
        if requester_id != owner_id:
            raise IsolationViolation(
                f"{requester_id} attempted to read state of {owner_id}"
            )
        return self.get(owner_id).store


class NonceRegistry:
    """Browser-held substitution registry (the callback-free variant).

    A manager extension holding the `secrets` permission registers each
    nonce's record up front: the secret and the policy that guards it. The
    browser alone checks that policy and applies the substitution later, at
    the late credential-stage position. Records are kept by page id, never
    by page.
    """

    def __init__(self) -> None:
        self._by_page: dict[str, dict[str, NonceRecord]] = {}

    def register_nonce(
        self, manifest: ExtensionManifest, page: Page, record: NonceRecord
    ) -> None:
        if not manifest.has(Permission.SECRETS):
            raise PermissionDenied(
                f"{manifest.extension_id} lacks the secrets permission"
            )
        self._by_page.setdefault(page.page_id, {})[record.nonce] = record

    def records_for(self, page_id: str) -> Mapping[str, NonceRecord]:
        """The page's records by nonce; empty when it registered none."""
        return self._by_page.get(page_id, {})
