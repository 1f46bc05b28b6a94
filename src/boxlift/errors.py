"""Exception types raised across the package."""


class BoxliftError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BoxliftError):
    """A file or record failed schema validation.

    ``where`` is a JSON-pointer-style path (manifests) or a line number
    (JSONL files) locating the offending element.
    """

    def __init__(self, message: str, where: str | int | None = None):
        self.where = where
        if where is not None:
            message = f"{where}: {message}"
        super().__init__(message)


class SceneIoError(BoxliftError):
    """A referenced file is missing or unreadable."""


class ConfigError(BoxliftError):
    """Invalid configuration value."""


class DegenerateHull(BoxliftError):
    """Convex hull undefined: fewer than 3 points or all collinear."""


class DegenerateSpread(BoxliftError):
    """Principal axes undefined: point set has zero covariance."""


class EmptyAggregate(BoxliftError):
    """Aggregation produced no points."""


class NoClusterError(BoxliftError):
    """Clustering labelled every point as noise."""
