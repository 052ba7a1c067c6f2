"""The benchmark's workloads, by name.

Each entry is ``run(seed, phases, tmp) -> RepStats``: one fixed-size
rep that marks its phases on ``phases`` and leaves nothing behind but
files under ``tmp``.  ``unit`` is what ``units_per_s`` counts;
``rep_seconds`` is the wall one rep took on the sizing host, rounded,
and only turns ``--seconds`` into a whole number of reps.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, NamedTuple

from perf.workloads import film, fleet_shards2, kernel_link, lossy_mixed


class Workload(NamedTuple):
    run: Callable
    unit: str
    rep_seconds: float


WORKLOADS: Dict[str, Workload] = {
    "kernel_link": Workload(kernel_link.run, "packet delivered", 15.0),
    "film_orch": Workload(
        partial(film.run, "film_orch"), "OSDU presented", 10.0),
    "film_obs": Workload(
        partial(film.run, "film_obs"), "OSDU presented", 15.0),
    "lossy_mixed": Workload(lossy_mixed.run, "OSDU read", 7.0),
    "fleet_shards2": Workload(fleet_shards2.run, "audited packet", 7.0),
}
