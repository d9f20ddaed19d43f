"""Certified lower and upper bounds for the nonorientable four-ball genus
of torus knots, in exact integer and rational arithmetic."""
