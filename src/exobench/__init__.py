"""exobench: simulation and analysis workbench for a tendon-driven hand orthosis.

The package covers the full stack needed to exercise the device logic on a
desk: synthetic sensor streams (8-channel surface EMG, shoulder-harness load
cell), intent inferral (LDA classifier and dual-threshold harness detector),
a saturated proportional position loop driving an underactuated finger
plant, the training session protocol, and the clinical outcome statistics
(gain tables, paired tests, Benjamini-Hochberg correction).

The study design values below are defined here, where importing them loads
no numpy: the CLI settings read them without the numeric modules, which
import them under their own names (``subject.HAND_SIZES``,
``protocol.TOTAL_SESSIONS``, ``signals.DEFAULT_EMG_RATE_HZ`` and so on).
"""

__version__ = "0.1.0"

#: Glove sizes and Modified Ashworth grades a subject may have.
HAND_SIZES = ("S", "M", "L")
MAS_GRADES = ("0", "1", "1+", "2")
#: Training sessions in the protocol.
TOTAL_SESSIONS = 12
#: Default EMG and harness load-cell sample rates, Hz.
DEFAULT_EMG_RATE_HZ = 50.0
DEFAULT_LOAD_RATE_HZ = 50.0
