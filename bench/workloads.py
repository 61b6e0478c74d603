"""The benchmark's workloads: one distillab CLI command and config each.

Every input is generated here from the benchmark's ``--seed``: repetition
``r`` of a run gets the config seed :func:`config_seed` ``(name, seed, r)``,
which drives label placement, the Gram perturbation and the oracle's
starting point.  The program receives only the generated config file.

Stdlib only: the parent process imports this module and must stay small,
because a child spawned from it starts with the parent's resident pages
counted in its own peak RSS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ETA_GRID = [round(0.05 * i, 2) for i in range(19)]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    why: str
    # traced call counts that must hold exactly on every run
    expected_calls: dict = field(default_factory=dict)

    def operations(self) -> int:
        """Operations per command run: sweep points, else the run itself."""
        values = self.config.get("sweep_values")
        return len(values) if values else 1

    def make_config(self, seed: int, rep: int) -> dict:
        return dict(self.config, seed=config_seed(self.name, seed, rep), workers=1)


def config_seed(name: str, seed: int, rep: int) -> int:
    return random.Random(f"{name}/{seed}/{rep}").randrange(2**31)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="traj_structured",
            command="trajectory",
            config={
                "gram": {"case": "III", "K": 4, "n": 756, "c": 0.4, "d": 0.1},
                "corruption": {"kind": "symmetric", "eta": 0.5},
                "lam": 3.125e-4,
                "t_max": 4,
                "modes": ["closed_form", "pll", "theory"],
            },
            why="unperturbed N=3024 trajectory: analytic eigensystem, dense averaging "
                "operator, per-sample CSV writes; bypasses the oracle",
            # eigenvalue table for rounds 0..t_max plus the PLL student
            expected_calls={"distillation.averaging_operator": 6,
                            "gram_models.analytic_eigensystem": 1,
                            "oracle.solve_round": 0},
        ),
        Workload(
            name="oracle_nsweep",
            command="approx-error",
            config={
                "gram": {"case": "III", "K": 4, "n": 100, "c": 0.4, "d": 0.1},
                "corruption": {"kind": "symmetric", "eta": 0.5},
                "lam": 1e-3,
                "t_max": 1,
                "modes": ["oracle"],
                "solver_tolerance": 1e-8,
                "sweep_parameter": "n",
                "sweep_values": [50, 100, 200, 400],
            },
            why="criterion-6 approx-error sweep n=50..400: oracle solve_round on an "
                "unperturbed Gram dominates; little CSV output, no averaging operator",
            # one round per point; every n is off the grid, so each point
            # fails one realization and snaps
            expected_calls={"oracle.solve_round": 4,
                            "oracle.measure_approx_error": 4,
                            "noise_theory.realize_labels": 8,
                            "distillation.averaging_operator": 0},
        ),
        Workload(
            name="phase_eta",
            command="phase",
            config={
                "gram": {"case": "V", "K": 6, "n": 200, "c": 0.4, "d": 0.15, "e": 0.05,
                         "superclass_sizes": [3, 3]},
                "corruption": {"kind": "superclass", "eta": 0.0},
                "lam": 3.125e-4,
                "t_max": 4,
                "modes": ["closed_form", "pll", "theory"],
                "sweep_parameter": "eta",
                "sweep_values": ETA_GRID,
            },
            why="case-V phase sweep over 19 eta: the same model rebuilt per point "
                "(eigensystem, R x R core, noise_theory predictions); bypasses the oracle",
            # one eigensystem and one config parse per point, plus the parse
            # of the --config file
            expected_calls={"gram_models.analytic_eigensystem": 19,
                            "config.from_json": 20,
                            "noise_theory.theory_constants": 19,
                            "oracle.solve_round": 0},
        ),
        Workload(
            name="traj_dense_oracle",
            command="trajectory",
            config={
                "gram": {"case": "IV", "K": 4, "n": 240, "c": 0.4, "d": 0.1,
                         "superclass_sizes": [2, 2], "perturbation_amplitude": 0.01},
                "corruption": {"kind": "superclass", "eta": 0.3},
                "lam": 1e-3,
                "t_max": 3,
                "modes": ["closed_form", "pll", "oracle"],
                "solver_tolerance": 1e-9,
            },
            why="perturbed case-IV trajectory with chained oracle rounds: numeric "
                "eigensystem and dense paths; structured and cell solvers must not change it",
            expected_calls={"oracle.solve_round": 3,
                            "gram_models.numeric_eigensystem": 1,
                            "gram_models.analytic_eigensystem": 0,
                            "distillation.averaging_operator": 5},
        ),
    ]
}
