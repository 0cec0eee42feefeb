"""The benchmark's workloads: seeded inputs and the one CLI job each runs.

Every input is a pure function of the workload and the seed. The program
under test sees only the CSV + schema pair written here and the argv of
its job; the generator code below never runs inside the timed process.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from detangle import FactorSchema, RepresentationSet, factor_grid, write_representation_set


# Factor j's home block is 7j mod n_factors: a permutation of the blocks
# while 7 and n_factors are coprime.
HOME_STRIDE = 7


@dataclass(frozen=True)
class Workload:
    """One seeded input family and the CLI job run on it.

    Latents are the centred labels times a random factor-to-neuron mixing
    matrix plus gaussian noise. With rows > 0 the labels are drawn uniformly
    at random; with rows == 0 they are the full exact factor grid repeated
    `copies` times. With home_weight > 0 every factor also has one "home"
    neuron, drawn from a block of neurons fixed per factor, that carries
    only that factor, with that weight.
    """

    name: str
    why: str
    command: str
    n_factors: int
    cardinality: int
    n_neurons: int
    rows: int = 0
    copies: int = 1
    density: float = 1.0
    noise: float = 0.5
    epochs: int | None = None
    learning_rate: float | None = None
    n_pairs: int = 0
    home_weight: float = 0.0

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(f"f{j}" for j in range(self.n_factors))

    def _rng(self, seed: int) -> np.random.Generator:
        # The name is folded in so two workloads never share a stream.
        return np.random.default_rng([int(seed), zlib.crc32(self.name.encode())])

    def representation(self, seed: int) -> RepresentationSet:
        rng = self._rng(seed)
        schema = FactorSchema(self.factor_names, (self.cardinality,) * self.n_factors)
        if self.rows:
            labels = rng.integers(0, self.cardinality, size=(self.rows, self.n_factors))
        else:
            labels = factor_grid(schema, copies=self.copies)
        mixing = rng.standard_normal((self.n_factors, self.n_neurons))
        if self.density < 1.0:
            mixing *= rng.random(mixing.shape) < self.density
        if self.home_weight:
            # The lexicographic alignment's cost depends on where each
            # factor's best neuron sits; fixing the block keeps that cost
            # nearly the same for every seed, where uniform positions vary
            # it by about 15 %.
            block = self.n_neurons // self.n_factors
            factors = np.arange(self.n_factors)
            homes = (factors * HOME_STRIDE % self.n_factors) * block + rng.integers(0, block, self.n_factors)
            mixing[:, homes] = 0.0
            mixing[factors, homes] = self.home_weight
        centred = labels - (self.cardinality - 1) / 2.0
        latents = centred @ mixing + self.noise * rng.standard_normal((labels.shape[0], self.n_neurons))
        return RepresentationSet(latents, labels, schema)

    def pairs(self, seed: int) -> str:
        """Excluded combinations for `cg`, as the --pairs flag spells them."""
        rng = self._rng(seed + 1)
        combos = list(itertools.combinations(range(self.n_factors), 2))
        chosen = sorted(rng.choice(len(combos), size=self.n_pairs, replace=False))
        terms = []
        for c in chosen:
            a, b = combos[c]
            va, vb = rng.integers(0, self.cardinality, size=2)
            terms.append(f"f{a}:{va},f{b}:{vb}")
        return ";".join(terms)

    def write_inputs(self, directory: Path, seed: int) -> RepresentationSet:
        directory.mkdir(parents=True, exist_ok=True)
        rep = self.representation(seed)
        write_representation_set(rep, directory / "data.csv", directory / "schema.json")
        return rep

    def argv(self, data_dir: Path, out_dir: Path, seed: int) -> list[str]:
        """The job's argv; every file it writes lands in out_dir."""
        argv = [self.command, "--data", str(data_dir), "--out", str(out_dir / "payload.json")]
        if self.command == "align":
            return argv + ["--svg", str(out_dir / "hinton.svg")]
        argv += ["--seed", str(seed)]
        if self.command == "cg":
            argv += ["--pairs", self.pairs(seed), "--probe", "both"]
        if self.epochs is not None:
            argv += ["--epochs", str(self.epochs)]
        if self.learning_rate is not None:
            argv += ["--learning-rate", str(self.learning_rate)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="metrics_mid",
            why="detangle metrics on 20k rows x 32 neurons, 8 factors: the only job that runs "
            "every stage (load, importance, alignment, SNC, SAP, NK probes)",
            command="metrics",
            n_factors=8,
            cardinality=6,
            n_neurons=32,
            rows=20_000,
            epochs=2,
        ),
        Workload(
            name="align_wide",
            why="detangle align --svg on 30 factors x 256 neurons, 1k rows, sparse mixing: "
            "importance and lexicographic alignment dominate; no probes run",
            command="align",
            n_factors=30,
            cardinality=4,
            n_neurons=256,
            rows=1_000,
            density=0.1,
            home_weight=3.0,
        ),
        Workload(
            name="cg_grid",
            why="detangle cg --probe both, 3 pairs + control on a 4096-row exact grid: "
            "almost all probe training; importance and alignment never run",
            command="cg",
            n_factors=5,
            cardinality=4,
            n_neurons=16,
            copies=4,
            epochs=15,
            learning_rate=0.005,
            n_pairs=3,
        ),
    )
}
