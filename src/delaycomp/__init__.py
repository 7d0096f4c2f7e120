"""Predictor-feedback compensation of a constant input delay for a linear
differential-drive robot model."""

__version__ = "0.1.0"
