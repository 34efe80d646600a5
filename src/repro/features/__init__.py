"""Feature extraction: the paper's vectors, histories and item protocol.

:class:`AreaDayProfile` tables one (area, day) for the real-time vectors
(Definitions 5–7); :class:`AreaHistory` sums those tables over same-weekday
days for one area and is the one featurizer of real-time and historical
vectors, used by :class:`FeatureBuilder` for training and by
:class:`repro.core.GapPredictor` for serving.
"""

from .builder import SIGNALS, ExampleSet, FeatureBuilder
from .environment import EnvironmentWindows, Standardizer, extract_environment
from .history import AreaHistory, signal_arrays
from .matrix import linear_design_matrix, tree_design_matrix
from .vectors import AreaDayProfile, window_vectors

__all__ = [
    "AreaDayProfile",
    "AreaHistory",
    "signal_arrays",
    "window_vectors",
    "EnvironmentWindows",
    "extract_environment",
    "Standardizer",
    "ExampleSet",
    "FeatureBuilder",
    "SIGNALS",
    "tree_design_matrix",
    "linear_design_matrix",
]
