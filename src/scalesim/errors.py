"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for simulator errors."""


class EmptyQueueError(SimulationError):
    """Raised by the event loop when no events remain (scenario end)."""


class UnknownPoolError(SimulationError):
    """Raised when an operation names a pool that does not exist."""


class InvariantViolation(SimulationError):
    """A live structural invariant failed; the run must abort.

    The message always starts with the name of the violated property.
    """


class ConfigError(ValueError):
    """A rule that ties several knobs together failed. `keys` are the scenario
    keys it names, so a parser can point at the line that set one."""

    def __init__(self, message: str, *keys: str):
        self.keys = keys
        super().__init__(message)


class ScenarioError(Exception):
    """Scenario file could not be parsed or validated."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
