"""Exception hierarchy shared by all ahmca modules."""


class AhmcaError(Exception):
    """Base class for all errors raised by this package."""


# --- taxonomy ---

class TaxonomyError(AhmcaError):
    pass


class CycleError(TaxonomyError):
    pass


class OrphanParentError(TaxonomyError):
    pass


class LevelGapError(TaxonomyError):
    pass


class DuplicateIdError(TaxonomyError):
    pass


class LevelOutOfRangeError(TaxonomyError):
    pass


class UnknownLabelError(TaxonomyError):
    pass


class EmptyLabelTextError(TaxonomyError):
    pass


# --- corpus ---

class CorpusError(AhmcaError):
    pass


class MalformedRecordError(CorpusError):
    pass


class EmptyTextError(CorpusError):
    pass


class TooFewDocumentsError(CorpusError):
    pass


class SpecInvalidError(CorpusError):
    pass


class TaxonomyMismatchError(CorpusError):
    pass


# --- numerics ---

class DimMismatchError(AhmcaError):
    pass


class NonFiniteError(AhmcaError):
    pass


# --- embedding ---

class EmbeddingError(AhmcaError):
    pass


class MalformedHeaderError(EmbeddingError):
    pass


class RowArityError(EmbeddingError):
    pass


class DuplicateTokenError(EmbeddingError):
    pass


class CountMismatchError(EmbeddingError):
    pass


class NonFiniteVectorError(EmbeddingError):
    pass


class EmptyInputError(AhmcaError):
    pass


# --- attention ---

class EmptyContextError(AhmcaError):
    pass


# --- metrics ---

class EmptyTruthError(AhmcaError):
    pass


# --- config ---

class ConfigError(AhmcaError):
    pass


class UnknownConfigKeyError(ConfigError):
    pass


class ConfigTypeError(ConfigError):
    pass


class ConfigRangeError(ConfigError):
    pass


# --- training / checkpoint ---

class NonFiniteLossError(AhmcaError):
    pass


class CheckpointError(AhmcaError):
    pass


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class CorruptPayloadError(CheckpointError):
    pass

