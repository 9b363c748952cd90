"""Outside-in tracer for noncepipe: wraps public functions, records spans.

The wrappers live here, never in the program. Many names are imported with
`from .x import y`, so `install` replaces every binding of the same function
object in every loaded `noncepipe` module (for example `dispatch` in both
`pipeline` and `session`); for a method it replaces the class attribute.

A span is a name, a start, an end and the index of its parent span, nothing
else: argument values never reach the trace, so no secret can either. Spans
are kept in memory and summarised at the end. A few wrappers also count a
property of the result (a decision approved, a header stripped), again
without keeping the value.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

_NOW = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One traced callable: `module.path`, e.g. ("pipeline", "dispatch")."""

    module: str
    path: str
    span: Optional[str] = None  # defaults to "<module>.<path>"
    # counter name -> predicate on the result; the counter adds 1 when true
    count: tuple[tuple[str, Callable[[Any], bool]], ...] = ()

    @property
    def span_name(self) -> str:
        return self.span or f"{self.module}.{self.path}"


def _dispatch_leg(args: tuple, kwargs: dict) -> str:
    config = kwargs["config"] if "config" in kwargs else args[2]
    if not config.credential_stage_enabled:
        return "pipeline.dispatch.stage_off"
    return "pipeline.dispatch." + config.defense_mode.value


TARGETS = (
    Target("es256", "sign"),
    Target("es256", "public_key_bytes"),
    Target("es256", "verify"),
    Target("fido2", "AuthenticatorDevice.make_credential"),
    Target("fido2", "AuthenticatorDevice.get_assertion"),
    Target("fido2", "RelyingParty.begin"),
    Target(
        "fido2",
        "RelyingParty.finish",
        count=(("fido2.RelyingParty.finish.accepted_frac", lambda r: r.accepted),),
    ),
    Target(
        "fido2",
        "SecureStore.strip_and_store",
        count=(("fido2.SecureStore.strip_and_store.stripped", lambda r: r[1]),),
    ),
    Target(
        "fido2",
        "SecureStore.inject",
        count=(("fido2.SecureStore.inject.injected_frac", lambda r: r is not None),),
    ),
    Target("rng", "substream"),
    Target("rng", "derive_seed"),
    Target("session", "BrowserSession.__init__", span="session.BrowserSession.init"),
    Target("sites", "build_login_page"),
    Target("sites", "site_vault_entry"),
    Target("sites", "ServerFarm.add_site"),
    Target("sites", "ServerFarm.serve"),
    Target("sites", "compat_evaluate"),  # partitions glue out of cli.report
    Target("pipeline", "dispatch"),  # span named per leg, see _dispatch_leg
    Target("pipeline", "process_response"),
    Target("pipeline", "ListenerRegistry.at"),
    Target("pipeline", "StageTranscript.record_delivery"),
    Target(
        "pipeline",
        "apply_substitutions",
        count=(("pipeline.apply_substitutions.applied_frac", lambda r: bool(r[1])),),
    ),
    Target("manager", "PasswordManager.autofill"),
    Target(
        "manager",
        "PasswordManager.safety_check",
        count=(("manager.PasswordManager.safety_check.approved_frac", lambda r: r.approved),),
    ),
    Target("dom", "submit_form"),
    Target("dom", "script_mutate"),
    Target("extensions", "ExtensionHost.install"),
    Target("extensions", "ExtensionHost.register_listener"),
    Target("http_model", "urlencode_entries"),
    Target("http_model", "decode_urlencoded"),
    Target("http_model", "sha256_hex"),
    Target(
        "http_model",
        "Origin.__post_init__",
        span="http_model.Origin.init",
        count=(("http_model.Origin.created", lambda r: True),),
    ),
    Target("http_model", "Url.parse"),
    Target("http_model", "RequestBody.with_entries"),
    Target("adversaries", "run_scenario"),
    Target("adversaries", "find_leaks"),
    Target("adversaries", "run_fido2_scenario"),
    Target("adversaries", "evaluate_matrix"),  # partitions glue out of cli.report
    Target("cli", "cmd_matrix", span="cli.report"),
    Target("cli", "cmd_compat", span="cli.report"),
    Target("cli", "cmd_fido2_demo", span="cli.report"),
    Target("cli", "_honest_fido2_flows"),  # partitions glue out of cli.report
    Target("cli", "_replay_demo"),  # partitions glue out of cli.report
)

# span names whose per-call durations the summary keeps (for p50/p99)
TIMED_SPANS = (
    "es256.sign",
    "es256.public_key_bytes",
    "es256.verify",
    "sites.ServerFarm.serve",
    "adversaries.run_scenario",
    "adversaries.run_fido2_scenario",
)
DISPATCH_PREFIX = "pipeline.dispatch."


class Tracer:
    """Holds the spans of one process, from `install` until it exits."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        fixed = None if target.span_name == "pipeline.dispatch" else target.span_name
        count = target.count
        cancelled = sys.modules["noncepipe.pipeline"].Cancelled

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fixed or _dispatch_leg(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _NOW()
            try:
                result = fn(*args, **kwargs)
            except cancelled:
                if fixed is None:  # only dispatch raises it to its caller
                    counters["pipeline.dispatch.cancelled"] += 1
                raise
            finally:
                span[2] = _NOW()
                stack.pop()
            for name, predicate in count:
                if predicate(result):
                    counters[name] += 1
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "noncepipe"]
        for target in TARGETS:
            owner = sys.modules[f"noncepipe.{target.module}"]
            *classes, attr = target.path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped: object = classmethod(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            if classes:
                setattr(owner, attr, wrapped)
                continue
            # a module function: rebind it wherever it was imported by name
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds, and durations for TIMED_SPANS."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        durations: defaultdict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
            if name in TIMED_SPANS or name.startswith(DISPATCH_PREFIX):
                durations[name].append(end - start)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "durations": dict(durations),
            "counters": dict(self.counters),
        }
