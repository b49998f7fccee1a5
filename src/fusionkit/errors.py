"""Exception hierarchy shared across the package."""


class FusionKitError(Exception):
    """Base class for all errors raised by fusionkit."""


class StructureError(FusionKitError, ValueError):
    """Malformed combinatorial input: bad indices, negative multiplicities,
    wrong shapes.  Distinct from axiom violations, which are collected in
    validation reports instead of raised."""


class TwistError(FusionKitError, ValueError):
    """Twist exponents violate their invariants (nonzero at the unit label,
    or not conjugation-symmetric)."""


class NumericError(FusionKitError, RuntimeError):
    """A numerical procedure failed: eigensolver did not converge, spectrum
    did not separate, a quantity expected to be rational/integral was not."""


class RankAmbiguityError(NumericError):
    """Values too close to a rank cutoff (``numerics.zero_mask``) to decide
    the dimension of a space; rerun with tighter tolerance or better data."""


class VanishingZError(FusionKitError):
    """The Gauss sum sum_l d_l^2 w_l vanishes, so S and the central charge
    are undefined for this model."""


class VerlindeError(FusionKitError):
    """The S-matrix failed to diagonalize the fusion rules to integers."""


class NondegeneracyRequired(FusionKitError):
    """Operation is only meaningful for a non-degenerate braiding."""


class SchemaError(FusionKitError, ValueError):
    """A JSON input file does not match the expected schema."""


class CertificateError(FusionKitError):
    """An induction certificate is internally inconsistent."""
