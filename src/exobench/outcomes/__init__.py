"""Clinical outcome measures, gain computation, and the statistical pipeline."""
