"""Exception types shared across the toolkit."""


class HpcwlError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(HpcwlError):
    """A record does not conform to the documented input schema."""

    def __init__(self, row, field, message=""):
        self.row = row
        self.field = field
        super().__init__(message or f"row {row}: bad or missing field {field!r}")


class TimestampOrderError(SchemaError):
    """submit/start/end timestamps of a job are out of order."""

    def __init__(self, row, message=""):
        super().__init__(row, "submit_time/start_time/end_time",
                         message or f"row {row}: timestamps out of order")


class OverlappingFactorWindows(SchemaError):
    def __init__(self, resource):
        self.resource = resource
        super().__init__(0, "su_factors",
                         f"overlapping SU factor windows for resource {resource!r}")


class MissingGeometry(SchemaError):
    def __init__(self, resource):
        self.resource = resource
        super().__init__(0, "nodes/cores_per_node",
                         f"resource {resource!r} lacks node/core geometry")


class NoFactorForDate(HpcwlError):
    def __init__(self, resource, on_date):
        self.resource = resource
        self.on_date = on_date
        super().__init__(f"no SU factor window covers {on_date} on {resource!r}")


class InvalidMemInfo(HpcwlError):
    """A meminfo sample has a negative component."""


class MissingProlog(HpcwlError):
    def __init__(self, node, metric):
        self.node = node
        self.metric = metric
        super().__init__(f"no prolog sample for counter {metric!r} on node {node!r}")


class MissingEpilog(HpcwlError):
    def __init__(self, node, metric):
        self.node = node
        self.metric = metric
        super().__init__(f"no epilog sample for counter {metric!r} on node {node!r}")


class InvalidPattern(HpcwlError):
    """An application pattern failed to compile at DB load time."""


class EmptyGroup(HpcwlError):
    """An aggregation group has no members."""


class EmptyProfile(HpcwlError):
    """A depth profile is empty or has no usage."""


class DegenerateInput(HpcwlError):
    """Input carries no usable signal (e.g. constant series, single class)."""


class SeparationDetected(HpcwlError):
    """Logistic fit diverged: the classes are (quasi-)separable."""


class NonConvergence(HpcwlError):
    def __init__(self, iterations):
        self.iterations = iterations
        super().__init__(f"fit did not converge within {iterations} iterations")


class UnknownAnalysis(HpcwlError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown analysis {name!r}")


class AnalysisError(HpcwlError):
    """An analysis inside a report failed; carries the analysis name."""

    def __init__(self, analysis, cause):
        self.analysis = analysis
        self.cause = cause
        super().__init__(f"analysis {analysis!r} failed: {cause}")
