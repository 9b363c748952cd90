"""Deterministic simulator of the browser webRequest pipeline with two
secure authentication channels: nonce-based password substitution at a
dedicated credential stage, and a header-based FIDO2 channel. Ships with
local adversaries, a synthetic site corpus, and a batch CLI.
"""

from .dom import (
    DuplicateField,
    Field,
    FieldKind,
    Form,
    HookKind,
    Page,
    Provenance,
    ScriptHandle,
    SubmitHook,
    submit_form,
)
from .extensions import (
    Extension,
    ExtensionHost,
    ExtensionManifest,
    Permission,
    PermissionDenied,
)
from .fido2 import (
    AuthenticatorDevice,
    Fido2Request,
    RelyingParty,
    SecureStore,
)
from .http_model import (
    ChannelSecurity,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    WebResponseRecord,
)
from .manager import PasswordManager, VaultEntry, generate_nonce
from .pipeline import (
    BodyView,
    Cancel,
    Cancelled,
    DefenseMode,
    PipelineConfig,
    Redirect,
    Stage,
    StageTranscript,
    StageView,
    SubstitutionRequest,
    apply_substitutions,
    dispatch,
    process_response,
    stage_order,
)
from .session import BrowserSession, FlowResult
from .sites import (
    CompatReport,
    ServerFarm,
    SiteProfile,
    build_fixture_corpus,
    compat_evaluate,
    parse_corpus,
)
from .adversaries import (
    AttackOutcome,
    AttackScenario,
    EXPECTED_MATRIX,
    MatrixReport,
    evaluate_matrix,
    run_fido2_scenario,
    run_reflection_attack,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "AttackScenario",
    "AuthenticatorDevice",
    "BodyView",
    "BrowserSession",
    "Cancel",
    "Cancelled",
    "ChannelSecurity",
    "CompatReport",
    "DefenseMode",
    "DuplicateField",
    "EXPECTED_MATRIX",
    "Extension",
    "ExtensionHost",
    "ExtensionManifest",
    "Fido2Request",
    "Field",
    "FieldKind",
    "FlowResult",
    "Form",
    "HookKind",
    "MatrixReport",
    "Origin",
    "Page",
    "PasswordManager",
    "Permission",
    "PermissionDenied",
    "PipelineConfig",
    "Provenance",
    "Redirect",
    "RelyingParty",
    "RequestBody",
    "ScriptHandle",
    "SecureStore",
    "ServerFarm",
    "SiteProfile",
    "Stage",
    "StageTranscript",
    "StageView",
    "SubmitHook",
    "SubstitutionRequest",
    "Url",
    "VaultEntry",
    "WebRequestRecord",
    "WebResponseRecord",
    "apply_substitutions",
    "build_fixture_corpus",
    "compat_evaluate",
    "dispatch",
    "evaluate_matrix",
    "generate_nonce",
    "parse_corpus",
    "process_response",
    "run_fido2_scenario",
    "run_reflection_attack",
    "run_scenario",
    "stage_order",
    "submit_form",
]
