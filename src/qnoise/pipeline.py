"""One shared pipeline: every stage of the chain, built once on first read.

The whole toolkit derives from one density pair and one time step:

    pair -> seq -> model -> filt (invertible models only)
                         -> parts (vacuum/thermal split)
         -> transmission -> synthesized
         -> vacuum_pair -> canonical

Each stage is a cached attribute, so the verification suites and the CLI
commands that read the same stage share one object instead of rebuilding
the chain.  Stages call their builders through the module attribute
(``stationary.build_model``), so replacing that attribute, as a test or
tracer does, is seen by the pipeline too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import decomposition, qsi, spectra, stationary, synthesis
from .spectra import SpectralDensityPair


@dataclass(frozen=True, eq=False)
class Pipeline:
    """The chain of one density pair at time step ``eps``."""

    pair: SpectralDensityPair
    eps: float

    @cached_property
    def seq(self) -> stationary.CorrelationSequence:
        return stationary.correlation_sequence(self.pair, self.eps)

    @cached_property
    def model(self) -> stationary.StationaryModel:
        return stationary.build_model(self.seq)

    @cached_property
    def filt(self) -> stationary.ModularFilter | None:
        """The modular filter, or None when the model is singular."""
        return stationary.modular_matrix(self.model) if self.model.invertible else None

    @cached_property
    def parts(self) -> decomposition.ComponentSplit:
        return decomposition.split(self.model, self.pair)

    @cached_property
    def transmission(self) -> synthesis.TransmissionFilter:
        return synthesis.transmission_function(self.pair)

    @cached_property
    def synthesized(self) -> synthesis.SynthesisResult:
        return synthesis.synthesize(self.transmission, self.transmission.standard)

    @cached_property
    def vacuum_pair(self) -> SpectralDensityPair:
        """The pair if it is a standard vacuum, else the half-line indicator."""
        if spectra.STANDARD_VACUUM in spectra.classify(self.pair):
            return self.pair
        grid = self.pair.grid
        return spectra.tabulated_density((grid.points < 0).astype(float), grid)

    @cached_property
    def canonical(self) -> tuple[qsi.CanonicalPair, qsi.VacuumAssembly]:
        """Canonical pair of ``vacuum_pair`` with its vacuum assembly."""
        return qsi.canonical_from_vacuum(self.vacuum_pair)
