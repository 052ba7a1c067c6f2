"""Matrix runner: execute cells, diff baselines, shrink failing chaos.

:func:`run_cell` executes one compiled scenario and reduces it to a
:class:`CellOutcome`; :func:`run_matrix` sweeps a list of specs, diffs
each against ``BASELINES.json`` (via :mod:`repro.obs.baseline`) and --
for a *degraded* chaotic cell -- hands the cell's materialised fault
plan to :func:`repro.faults.shrink_plan` with a "rerun this cell with
the candidate plan, is conformance still below the band?" predicate.
The shrunk minimal plan is written as a **repro file**: a small JSON
document that pins the scenario coordinates, the failing band and the
minimal episode list, replayable with
``python -m repro.scenarios --replay <file>`` (or
:func:`replay_repro`).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.faults.plan import FaultPlan, plan_from_jsonable, plan_to_jsonable
from repro.faults.shrink import ShrinkResult, shrink_plan
from repro.obs.baseline import (
    DEFAULT_TOLERANCE,
    attach_baseline_diff,
    baseline_entry,
    diff_cell,
)
from repro.scenarios.spec import ScenarioSpec, compile_spec
from repro.soak import FleetResult, run_fleet

#: Repro-file format marker (bump on incompatible change).
REPRO_FORMAT = "repro.scenarios/1"


@dataclass
class CellOutcome:
    """One matrix cell's reduced result."""

    spec: ScenarioSpec
    conformance: Optional[float]
    summary: Dict[str, Any]
    invariant_failures: List[str] = field(default_factory=list)
    diff: Optional[Dict[str, Any]] = None
    shrink: Optional[Dict[str, Any]] = None
    repro_path: Optional[str] = None

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    @property
    def ok(self) -> bool:
        """Healthy and within the baseline band (a new cell is not ok)."""
        if self.invariant_failures:
            return False
        return self.diff is None or self.diff["status"] == "ok"

    @property
    def status(self) -> str:
        if self.invariant_failures:
            return "invariant"
        if self.diff is not None and self.diff["status"] != "ok":
            return self.diff["status"]
        return "ok"


def run_cell(
    spec: ScenarioSpec,
    faults: Optional[tuple] = None,
    *,
    stream: bool = False,
    live: Optional[Any] = None,
) -> FleetResult:
    """Execute one scenario cell (inline unless the spec shards it).

    ``stream`` makes a sharded cell ship telemetry deltas once per
    audit period instead of only at finish (byte-identical merged
    documents); ``live`` is an optional JSONL sink passed through to
    :func:`repro.soak.run_fleet` for rolling SLO telemetry.
    """
    fleet = compile_spec(spec, faults)
    if stream:
        fleet = dataclasses.replace(fleet, stream=True)
    return run_fleet(fleet, inline=spec.shards == 1, live=live)


def cell_outcome(
    spec: ScenarioSpec,
    result: FleetResult,
    baselines: Optional[Dict[str, Any]] = None,
    tolerance: Optional[float] = None,
) -> CellOutcome:
    """Reduce a fleet result (plus optional baseline diff) to an outcome."""
    summary = result.audit.get("summary", {})
    outcome = CellOutcome(
        spec=spec,
        conformance=summary.get("conformance"),
        summary=dict(summary),
        invariant_failures=result.invariant_failures(),
    )
    if baselines is not None:
        band = tolerance
        if band is None:
            band = baselines.get("tolerance", DEFAULT_TOLERANCE)
        diff = diff_cell(
            summary, baselines.get("cells", {}).get(spec.scenario_id), band,
        )
        attach_baseline_diff(result.audit, diff, spec.scenario_id)
        outcome.diff = diff
    return outcome


def _degraded_predicate(
    spec: ScenarioSpec, floor: float,
) -> Callable[[FaultPlan], bool]:
    """"Does this candidate plan still push conformance below ``floor``?"

    Deterministic for a fixed candidate: the cell is seeded and the
    candidate plan fully replaces the variant's chaos, so the shrinker
    may trust repeated evaluations.
    """

    def still_fails(candidate: FaultPlan) -> bool:
        result = run_cell(spec, faults=tuple(candidate))
        conformance = result.audit.get("summary", {}).get("conformance")
        return conformance is not None and conformance < floor

    return still_fails


def shrink_cell(
    spec: ScenarioSpec,
    floor: float,
    max_probes: int = 200,
) -> Optional[ShrinkResult]:
    """Shrink a degraded chaotic cell's plan to a minimal repro.

    Returns ``None`` when the cell has no fault plan to shrink or the
    full plan does not actually push conformance below ``floor`` (the
    drift has another cause -- e.g. an upward drift or a code change
    unrelated to the chaos), in which case shrinking would be noise.
    """
    fleet = compile_spec(spec)
    if not fleet.faults:
        return None
    plan = FaultPlan(fleet.faults)
    still_fails = _degraded_predicate(spec, floor)
    if not still_fails(plan):
        return None
    return shrink_plan(plan, still_fails, max_probes=max_probes)


def write_repro(
    path: str,
    spec: ScenarioSpec,
    floor: float,
    shrunk: ShrinkResult,
) -> None:
    """Write a replayable minimal-plan repro file."""
    document = {
        "format": REPRO_FORMAT,
        "scenario": spec.scenario_id,
        "spec": asdict(spec),
        "conformance_floor": floor,
        "plan": plan_to_jsonable(shrunk.plan),
        "shrink": shrunk.to_jsonable(),
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def replay_repro(path: str) -> Dict[str, Any]:
    """Re-run a repro file's minimal plan; report whether it reproduces."""
    with open(path) as handle:
        document = json.load(handle)
    if document.get("format") != REPRO_FORMAT:
        raise ValueError(
            f"{path!r} is not a scenario repro file "
            f"(format {document.get('format')!r})"
        )
    spec = ScenarioSpec(**document["spec"])
    plan = plan_from_jsonable(document["plan"])
    result = run_cell(spec, faults=tuple(plan))
    conformance = result.audit.get("summary", {}).get("conformance")
    floor = document["conformance_floor"]
    return {
        "scenario": document["scenario"],
        "episodes": len(plan),
        "conformance": conformance,
        "floor": floor,
        "reproduced": conformance is not None and conformance < floor,
    }


@dataclass
class MatrixReport:
    """The full sweep's outcomes plus the refreshed baseline cells."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def refreshed_cells(self) -> Dict[str, Any]:
        """Observed per-cell baseline entries (for --update-baselines)."""
        return {
            outcome.scenario_id: baseline_entry(outcome.summary)
            for outcome in self.outcomes
        }


def run_matrix(
    specs: List[ScenarioSpec],
    baselines: Optional[Dict[str, Any]] = None,
    *,
    tolerance: Optional[float] = None,
    shrink: bool = True,
    repro_dir: str = ".",
    max_probes: int = 200,
    log: Callable[[str], None] = lambda line: None,
) -> MatrixReport:
    """Sweep the matrix: run, diff, and shrink degraded chaotic cells.

    Shrinking only fires for cells whose conformance fell *below* the
    band (fault-induced degradation is the shrinkable failure mode);
    upward drift and invariant failures are reported without a repro
    file.  Repro files land in ``repro_dir`` as
    ``repro-<mangled scenario id>.json``.
    """
    band = tolerance
    if band is None and baselines is not None:
        band = baselines.get("tolerance", DEFAULT_TOLERANCE)
    if band is None:
        band = DEFAULT_TOLERANCE
    report = MatrixReport(tolerance=band)
    for spec in specs:
        result = run_cell(spec)
        outcome = cell_outcome(spec, result, baselines, band)
        report.outcomes.append(outcome)
        log(f"{outcome.scenario_id}: {outcome.status} "
            f"(conformance {outcome.conformance})")
        for failure in outcome.invariant_failures:
            log(f"  INVARIANT FAILED: {failure}")
        diff = outcome.diff
        degraded = (
            diff is not None and diff["status"] == "drift"
            and diff.get("delta") is not None and diff["delta"] < 0
        )
        if not (shrink and degraded):
            continue
        floor = diff["expected"]["conformance"] - band
        shrunk = shrink_cell(spec, floor, max_probes=max_probes)
        if shrunk is None:
            log("  drift is not reproduced by the cell's fault plan; "
                "no repro to shrink")
            continue
        outcome.shrink = shrunk.to_jsonable()
        mangled = (outcome.scenario_id.replace("/", "_")
                   .replace(":", "-").replace("@", "_"))
        path = os.path.join(repro_dir, f"repro-{mangled}.json")
        write_repro(path, spec, floor, shrunk)
        outcome.repro_path = path
        log(f"  shrunk {shrunk.original_episodes} -> "
            f"{len(shrunk.plan)} episode(s) in {len(shrunk.probes)} "
            f"probe(s); repro written to {path}")
    return report
