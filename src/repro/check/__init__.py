"""repro.check: static verification of the paper's model layers.

``python -m repro check`` runs five passes, each guarding a different
pillar of the evaluation *before* any simulation happens (and before a
silent model bug can poison the content-addressed result cache):

- ``protocol`` (:mod:`repro.check.protocol`) — exhaustively
  model-checks the directory-based write-invalidate protocol of
  :mod:`repro.coherence.protocol` (Sections 4.2/6.1) for small
  node/block configurations, including in-flight requests and
  invalidations, against safety invariants (single writer,
  directory/cache agreement, ECC-directory encodability) and
  deadlock-freedom.  Violations come with a counterexample trace.
- ``gspn`` (:mod:`repro.check.gspn`) — structural analysis of every
  registered GSPN in :mod:`repro.gspn.models` (Figures 9-12 and the
  Section 5.6 bank sweep): incidence matrix, P-/T-invariants by exact
  rational arithmetic, token-conservation coverage of every resource
  place, structurally dead transitions, immediate-conflict weights.
- ``lints`` (:mod:`repro.check.lints`) — an AST linter over
  ``src/repro`` enforcing the determinism contract the result cache
  depends on: no module-level RNG state, no wall-clock reads in
  simulator cores, no float ``==`` on simulated quantities, no mutable
  default arguments, no silently swallowed exceptions.  Findings can
  be suppressed inline with ``# repro: allow(<rule>)``, a comment
  every pass honours (:mod:`repro.check.report`); unknown or unused
  suppressions are themselves reported.
- ``deps`` (:mod:`repro.check.deps`, on the graph of
  :mod:`repro.check.callgraph`) — whole-program dependency analysis:
  an interprocedural import/call graph over the package, seed-flow
  verification (every stochastic call site reachable from an
  experiment entry point must draw from an explicitly threaded
  ``numpy.random.Generator``), module-level mutable state and
  untracked-input detection with call-chain witnesses, and the
  per-experiment dependency slices behind
  :func:`repro.runner.fingerprint.slice_fingerprint`.
- ``units`` (:mod:`repro.check.units`, also on the call graph) —
  static units-and-dimensions flow analysis: dims seeded from the
  ``*_ns``/``*_bytes``/``*_cycles`` suffix convention and the explicit
  annotation registry of :mod:`repro.check.dimensions` are propagated
  through every function and across call boundaries; mixing units
  (``ns + cycles``, ``bytes < lines``, a ``us`` value into a ``*_ns``
  parameter, a seconds↔cycles boundary missing
  ``cycles_for_time``/``time_for_cycles``) is an error with a
  call-chain witness from a registered entry point.

This ``__init__`` deliberately re-exports nothing: the runner's
fingerprint slicer imports :mod:`repro.check.callgraph`, which executes
this module, so any import added here would join every experiment's
dependency slice and an edit to an unrelated pass would invalidate
every cached result.  Import the pass modules directly
(``from repro.check.lints import lint_paths`` and so on).

See CHECKS.md at the repository root for the full pass-by-pass guide.
"""
