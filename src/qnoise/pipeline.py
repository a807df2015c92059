"""One shared pipeline: every stage of the chain, built once on first read.

The whole toolkit derives from one density pair and one time step:

    pair -> seq -> model -> filt (invertible models only)
                         -> parts (vacuum/thermal split)
         -> transmission -> synthesized
         -> vacuum_pair -> canonical -> output

Each stage is a cached attribute, so the verification suites and the CLI
commands that read the same stage share one object instead of rebuilding
the chain.  Each stage imports its builder's module on first read, so a
caller that reads only the pair loads none of them.  Stages still call
their builders through the module attribute (``stationary.build_model``),
so replacing that attribute, as a test or tracer does, is seen by the
pipeline too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from . import spectra

if TYPE_CHECKING:
    from . import decomposition, qsi, stationary, synthesis


@dataclass(frozen=True, eq=False)
class Pipeline:
    """The chain of one density pair at time step ``eps``."""

    pair: spectra.SpectralDensityPair
    eps: float

    @cached_property
    def seq(self) -> stationary.CorrelationSequence:
        from . import stationary
        return stationary.correlation_sequence(self.pair, self.eps)

    @cached_property
    def model(self) -> stationary.StationaryModel:
        from . import stationary
        return stationary.build_model(self.seq)

    @cached_property
    def filt(self) -> stationary.ModularFilter | None:
        """The modular filter, or None when the model is singular."""
        from . import stationary
        return stationary.modular_matrix(self.model) if self.model.invertible else None

    @cached_property
    def parts(self) -> decomposition.ComponentSplit:
        from . import decomposition
        return decomposition.split(self.model, self.pair)

    @cached_property
    def transmission(self) -> synthesis.TransmissionFilter:
        from . import synthesis
        return synthesis.transmission_function(self.pair)

    @cached_property
    def synthesized(self) -> synthesis.SynthesisResult:
        from . import synthesis
        return synthesis.synthesize(self.transmission, self.transmission.standard)

    @cached_property
    def vacuum_pair(self) -> spectra.SpectralDensityPair:
        """The pair if it is a standard vacuum, else the half-line indicator."""
        if spectra.STANDARD_VACUUM in spectra.classify(self.pair):
            return self.pair
        grid = self.pair.grid
        return spectra.tabulated_density((grid.points < 0).astype(float), grid)

    @cached_property
    def canonical(self) -> tuple[qsi.CanonicalPair, tuple[qsi.MeasureSymbol, qsi.MeasureSymbol]]:
        """Canonical pair of ``vacuum_pair`` with its (noise, reverse) measures."""
        from . import qsi
        return qsi.canonical_from_vacuum(self.vacuum_pair)

    @cached_property
    def output(self) -> qsi.OutputPair:
        """Output pair over ``canonical`` with the pair's amplitudes."""
        from . import qsi
        return qsi.build_output_pair(self.canonical[0], self.pair.sigma, self.pair.sigma_rev)
