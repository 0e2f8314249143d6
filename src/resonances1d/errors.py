"""Exception and warning types shared across the library."""


class Resonances1DError(Exception):
    """Base class for all library errors."""


class InputError(Resonances1DError, ValueError):
    """The input, not the numerics, is at fault."""


# -- potential construction

class NonIncreasingBreakpoints(InputError):
    pass


class HullDoesNotStraddleZero(InputError):
    pass


class AllZero(InputError):
    pass


class EmptyInterval(InputError):
    pass


class OverlappingSupports(InputError):
    pass


# -- forward scattering

class PoleAtK(Resonances1DError):
    """det S requested at a zero of the denominator function."""


# -- wave-kernel solver

class GridTooCoarse(Resonances1DError):
    pass


class ImaginaryPartTooLarge(Resonances1DError):
    pass


class SharedPartMismatch(InputError):
    pass


# -- zero finding

class BoundaryZero(Resonances1DError):
    """A zero hugs the contour even after dilation retries; cuts get none."""


class PhaseStepTooLarge(Resonances1DError):
    pass


class MaxZerosExceeded(Resonances1DError):
    pass


# -- asymptotic fits

class OverflowAtRadius(Resonances1DError):
    pass


class NonConvergentTail(Resonances1DError):
    pass


class ZeroInLowerHalfPlane(Resonances1DError):
    pass


class EvaluationAtZero(Resonances1DError):
    pass


class QuadratureNotConverged(Resonances1DError):
    """An adaptive integral missed its tolerance within its level cap."""


# -- inverse solver

class DivergedLoss(Resonances1DError):
    pass


class JacobianSingular(Resonances1DError):
    pass


# -- CLI

class UsageError(InputError):
    pass


class LowCountWarning(UserWarning):
    """Too few zeros in a sector for a trustworthy density fit."""


class UnconvergedZeroWarning(UserWarning):
    """Zeros whose Newton polish did not converge were left out of a fit."""
