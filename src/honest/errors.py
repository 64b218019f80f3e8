"""Exception hierarchy shared across the package."""


class HonestError(Exception):
    """Base class for all package errors."""


# --- embeddings ---

class ProviderUnavailable(HonestError):
    """Remote embedding endpoint unreachable after retries."""


class DegenerateEmbedding(HonestError):
    """Provider returned an all-zero vector."""


class DimensionMismatch(HonestError):
    pass


class ZeroVector(HonestError):
    pass


# --- similarity / confidence ---

class ComponentOutOfRange(HonestError):
    pass


class TooFewSamples(HonestError):
    pass


class DegenerateLabels(HonestError):
    """Training labels contain a single class; AUROC is undefined."""


# --- gate ---

class IdMismatch(HonestError):
    pass


# --- llm client ---

class EndpointError(HonestError):
    """Chat-completions request failed after retries."""


class EmptyCompletion(HonestError):
    pass


class TooFewUsable(HonestError):
    """Fewer than two usable programs came back from sampling."""


class LogprobsUnavailable(HonestError):
    pass


# --- baselines ---

class MissingLogprobs(HonestError):
    pass


class EmptyInput(HonestError):
    pass


class EmptyCorpus(HonestError):
    pass


# --- dataset io ---

class MalformedLine(HonestError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateId(HonestError):
    pass


class UnknownLanguage(HonestError):
    pass


# --- evaluation ---

class SingleClass(HonestError):
    pass


class NoPositives(HonestError):
    pass


class MissingProgramCounts(HonestError):
    pass
