"""exobench: simulation and analysis workbench for a tendon-driven hand orthosis.

The package covers the full stack needed to exercise the device logic on a
desk: synthetic sensor streams (8-channel surface EMG, shoulder-harness load
cell), intent inferral (LDA classifier and dual-threshold harness detector),
a saturated proportional position loop driving an underactuated finger
plant, the training session protocol, and the clinical outcome statistics
(gain tables, paired tests, Benjamini-Hochberg correction).
"""

__version__ = "0.1.0"
