"""The benchmark's workloads and how each one is handed to fchsim.

Every workload runs a shipped scenario's hot path at a shortened length.  The
benchmark seed reaches the program only as ``--override datum.seed=N``: the
``--seed`` flag is ignored whenever a config sets ``[datum] seed``, as
``configs/alpha_sweep_2d.ini`` does.
"""

import os
from dataclasses import dataclass

from fchsim.config import load_experiment_config
from fchsim.experiments import make_datum
from fchsim.integrate import prepare_initial_state
from fchsim.spectral import SpectralGrid


@dataclass(frozen=True)
class Workload:
    """One scenario invocation; `config` is relative to the checkout root."""

    name: str
    scenario: str
    config: str
    overrides: tuple = ()

    def overrides_for(self, seed):
        return list(self.overrides) + [f"datum.seed={int(seed)}"]

    def cli_args(self, seed, root, out):
        args = [self.scenario, "--config", os.path.join(root, self.config),
                "--out", out]
        for entry in self.overrides_for(seed):
            args += ["--override", entry]
        return args

    def load_config(self, seed, root):
        return load_experiment_config(
            self.scenario, path=os.path.join(root, self.config),
            overrides=self.overrides_for(seed))


WORKLOADS = {
    # 512^2 is the decay run's production grid; one complex vector field is
    # 8 MB against 4 MB of L2, and the filtered RHS makes 14 FFT calls.
    "ch2d-512": Workload("ch2d-512", "simulate", "bench/configs/ch2d_512.ini"),
    # The only 3D coverage: alpha = 0, so the filter is never called; the two
    # 3x3 Jacobians make 18 of the 22 FFT calls per RHS.
    "nse3d-48": Workload("nse3d-48", "simulate", "bench/configs/nse3d_48.ini"),
    # Five short 128^2 runs on cache-resident fields, about 15k FFT calls:
    # per-call overhead, the fractional-nse reference path and the
    # physical-space Lq diagnostics.  Its own gates still pass at this t_end.
    "sweep128": Workload("sweep128", "alpha-sweep", "configs/alpha_sweep_2d.ini",
                         ("solver.t_end=0.15",)),
}


def initial_state(config):
    """The projected, dealiased t = 0 spectrum the solver starts from."""
    grid = SpectralGrid(*config.grid)
    return prepare_initial_state(make_datum(config, grid), config.params).v.field
