"""Quantum-vs-classical walker speedup: simulation, datasets, and a classifier.

The package labels graphs by racing a continuous-time classical random
walk against a continuous-time quantum walk with a decaying sink, then
trains a small convolutional network to predict the winner directly from
the adjacency matrix.

Each public name is declared in its own module's `__all__`; the package
re-exports all of them.
"""

from . import cqcnn, datasets, evaluation, graphs, walkers
from .graphs import *
from .walkers import *
from .datasets import *
from .cqcnn import *
from .evaluation import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *graphs.__all__,
    *walkers.__all__,
    *datasets.__all__,
    *cqcnn.__all__,
    *evaluation.__all__,
]
