"""Lattice decoding toolkit and fading-channel simulation harness.

The package provides regularized lattice decoding with decision-feedback
preprocessing, basis-reduction-aided suboptimal decoders with certified
approximation ratios, fading-channel samplers, and a Monte Carlo engine
that estimates error-rate diversity slopes against reference curves.

The top level re-exports the public names (`__all__`) of every module
below except `numkernel` and `cli`.
"""

from . import channels, decoders, dmtsim, errors, experiment, lattice, reduction, validation
from .channels import *  # noqa: F401,F403
from .decoders import *  # noqa: F401,F403
from .dmtsim import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .reduction import *  # noqa: F401,F403
from .validation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, lattice, reduction, decoders, channels, dmtsim,
                        experiment, validation)
    for name in module.__all__]
