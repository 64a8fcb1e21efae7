"""The per-trial channel stage: the reference a sweep's `BlockStage` is
tested against.

`prepare` builds one received block's `ChannelStage` on its own: one
`RegularizedProblem`, whose constructor checks y and H, and whose GDFE
triangular form (`prepared()`) and gated LLL reduction (`gated_reduce`,
the single-basis list loop) are built on first use, at most once, and
only for a method that reads them.  A `BlockStage` lane must decode to
the same outcome, and raise the same failure, for every method."""

import numpy as np

from latdec.decoders import ChannelStage, RegularizedProblem


def prepare(y, h, design, codebook, rho=None, gate_alpha=None) -> ChannelStage:
    """Channel stage of one received block sent from `codebook`, the
    design's codebook, whose scale is the lattice's phi for every method.
    The penalty is the identity; the reduction-aided methods need `rho`
    and the gate exponent `gate_alpha`."""
    problem = RegularizedProblem(y=y, h=h, t_reg=np.eye(design.dimension),
                                 scaled_generator=codebook.scale * design.generator,
                                 dither=design.dither)
    return ChannelStage(problem, design, codebook, rho=rho, gate_alpha=gate_alpha)
