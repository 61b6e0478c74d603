"""Numerical laboratory for self-distillation under linear probing.

Structured Gram models and their eigensystems, label-noise corruption
matrices, closed-form multi-round distillation dynamics, the top-2
partial-label student, and an exact softmax fixed-point oracle, plus a
CLI reproducing the synthetic experiments.

The package exports every name in its modules' ``__all__`` lists.
"""

from . import config, distillation, errors, gram_models, noise_theory, oracle
from .config import *  # noqa: F401,F403
from .distillation import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .gram_models import *  # noqa: F401,F403
from .noise_theory import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__all__ = [name for module in (errors, gram_models, noise_theory, distillation, oracle, config)
           for name in module.__all__]
