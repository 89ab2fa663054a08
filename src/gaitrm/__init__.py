"""Gait specification via guarded reward automata, a desk-scale toy
quadruped environment, and a tabular cross-product learner.

The root namespace holds the pipeline's entry points; every other name
is imported from its own module (``gaitrm.guards``, ``gaitrm.machine``,
``gaitrm.env``, ``gaitrm.wrappers``, ``gaitrm.learn``, ``gaitrm.cli``)."""

from .machine import Gait, build_gait_rm
from .wrappers import make_wrapper
from .learn import LearnerConfig, evaluate, train

__version__ = "0.1.0"
