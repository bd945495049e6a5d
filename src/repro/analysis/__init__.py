"""Static analysis and runtime sanitizers for the repro simulator.

Every experimental claim in this reproduction rests on the simulator
being bit-for-bit deterministic, and on conflicts between cooperating
users being *surfaced* rather than silently serialised (the paper's
Figure 2 argument: atomic transactions wall users off; CSCW needs the
conflict visible so a social protocol can resolve it).  This package
provides the tooling that turns both properties into checkable ones:

* **Determinism lint** (:mod:`repro.analysis.lint`) — an AST pass with
  pluggable rules (``RPR001``…) flagging nondeterminism hazards: wall
  clock reads, RNGs constructed outside :mod:`repro.sim.rng`, unordered
  set iteration, ``id()``-based ordering, module-level mutable state and
  float equality on simulated time.  Run it with::

      PYTHONPATH=src python -m repro.analysis.lint src/

* **Happens-before conflict sanitizer** (:mod:`repro.analysis.hb`) — a
  vector-clock tracker fed by lock, floor, RPC and shared-store
  operations.  It reports concurrent conflicting accesses that no lock
  grant, floor possession or causal delivery ordered — the residue left
  to the social protocol.  Summarise a lock-style sweep with::

      PYTHONPATH=src python -m repro.analysis.races

* **Replay checker** (:mod:`repro.analysis.replay`) — runs a workload
  twice with the same seed and diffs event-trace digests::

      PYTHONPATH=src python -m repro.analysis.replay locks-soft

* **Whole-repo analyzer** (:mod:`repro.analysis.check`) — multi-pass
  static analysis over one shared AST index and call graph
  (:mod:`repro.analysis.ir`, :mod:`repro.analysis.callgraph`):
  interprocedural nondeterminism taint (:mod:`repro.analysis.taint`,
  ``RPR1xx``), the sim-protocol checker
  (:mod:`repro.analysis.protocol`, ``RPR2xx``) and the lock-order
  deadlock detector (:mod:`repro.analysis.lockorder`, ``RPR3xx``),
  with text/JSON/SARIF output and a fingerprint baseline::

      PYTHONPATH=src python -m repro.analysis.check src/

The workload/replay/races helpers are resolved lazily (PEP 562): this
package is imported by low-level instrumentation sites (locks, the
shared store, transports), so its eager imports must stay leaf-only.
"""

from repro.analysis.hb import (
    Access,
    Conflict,
    ConflictSanitizer,
    HB_HEADER,
    NOOP_SANITIZER,
    NoopSanitizer,
    READ,
    WRITE,
    use_sanitizer,
)
#: Lazily resolved attribute -> home module (dodges the import cycle
#: through repro.concurrency, which the eager workload imports close;
#: lint stays lazy so ``python -m repro.analysis.lint`` does not warn
#: about the module pre-existing in sys.modules).
_LAZY = {
    "Finding": "repro.analysis.lint",
    "Rule": "repro.analysis.lint",
    "RULES": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
    "WORKLOADS": "repro.analysis.workloads",
    "run_workload": "repro.analysis.workloads",
    "conflict_sweep": "repro.analysis.races",
    "replay": "repro.analysis.replay",
    "run_isolated": "repro.analysis.replay",
    "trace_digest": "repro.analysis.replay",
    "RepoIndex": "repro.analysis.ir",
    "CallGraph": "repro.analysis.callgraph",
    "run_passes": "repro.analysis.check",
    "rules_meta": "repro.analysis.check",
    "to_sarif": "repro.analysis.sarif",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            "module 'repro.analysis' has no attribute {!r}".format(name))
    import importlib
    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Access",
    "CallGraph",
    "Conflict",
    "ConflictSanitizer",
    "Finding",
    "HB_HEADER",
    "NOOP_SANITIZER",
    "NoopSanitizer",
    "READ",
    "RULES",
    "RepoIndex",
    "Rule",
    "WORKLOADS",
    "WRITE",
    "conflict_sweep",
    "lint_file",
    "lint_paths",
    "replay",
    "rules_meta",
    "run_isolated",
    "run_passes",
    "run_workload",
    "to_sarif",
    "trace_digest",
    "use_sanitizer",
]
