"""Extension host: installation, permissions, webRequest listeners.

What an extension may do follows from its manifest's permission set alone:
`webRequest` lets it register listeners, and only an extension holding
`secrets` (the password manager) is handed the browser's nonce store; the
pipeline keeps no views for its listeners.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .pipeline import (
    BLOCKING_STAGES,
    ListenerCallback,
    ListenerRegistration,
    ListenerRegistry,
    NonceStore,
    Stage,
    StageView,
)

__all__ = [
    "Extension",
    "ExtensionHost",
    "ExtensionManifest",
    "InvalidBlockingStage",
    "Permission",
    "PermissionDenied",
]


class Permission(Enum):
    WEB_REQUEST = "webRequest"
    SECRETS = "secrets"


class PermissionDenied(PermissionError):
    pass


class InvalidBlockingStage(ValueError):
    """Blocking listeners exist only at the first two request stages."""


class ExtensionManifest(NamedTuple):
    extension_id: str
    permissions: frozenset[Permission] = frozenset()

    def has(self, permission: Permission) -> bool:
        return permission in self.permissions


class Extension:
    """Installed extension: manifest plus what it was shown.

    The pipeline appends every view this extension's listeners were shown
    to `views`, unless it holds `secrets`; leak analysis later scans them.
    `nonces` is the browser's nonce store, which only an extension holding
    `secrets` is handed.
    """

    __slots__ = ("manifest", "views", "nonces")

    def __init__(self, manifest: ExtensionManifest, nonces: Optional[NonceStore] = None) -> None:
        self.manifest = manifest
        self.views: list[StageView] = []
        self.nonces = nonces

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
        self.nonces = NonceStore()
        self._listener_count = 0

    # -- installation ----------------------------------------------------

    def install(self, manifest: ExtensionManifest) -> Extension:
        if manifest.extension_id in self.extensions:
            raise ValueError(f"extension {manifest.extension_id!r} already installed")
        secrets = manifest.has(Permission.SECRETS)
        ext = Extension(manifest, nonces=self.nonces if secrets else None)
        self.extensions[manifest.extension_id] = ext
        return ext

    def get(self, extension_id: str) -> Extension:
        try:
            return self.extensions[extension_id]
        except KeyError:
            raise KeyError(f"no extension {extension_id!r} installed") from None

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
            # the trusted manager's views are read by no one
            sink=None if ext.manifest.has(Permission.SECRETS) else ext.views,
        )
        self.registry.add(registration)
        return registration
