"""Exception hierarchy shared by all ahmca modules, and the two rules every
input loader applies with its own exception class: parse_json (JSON text,
strict UTF-8 bytes or an already-parsed value) and check_utf8 (text that
UTF-8 cannot encode, a lone surrogate from a \\ud800-style JSON escape, is
refused where it is read, before it reaches a vocabulary or a file)."""

import json


def parse_json(source, error, what):
    """source parsed as JSON if it is text: a str, or bytes or a bytearray
    decoded as strict UTF-8; any other value is returned as it is.  Text
    that does not decode or parse, or that nests too deeply for the parser
    (a RecursionError), raises error(f"{what} ({reason})")."""
    if not isinstance(source, (str, bytes, bytearray)):
        return source
    try:
        return json.loads(source if isinstance(source, str) else source.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise error(f"{what} ({e})") from None


def check_utf8(text, error, what):
    """Raise error, quoting 16 characters on each side of the first bad one,
    unless str text encodes as UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise error(f"{what} holds text that is not valid UTF-8: "
                    f"{e.object[max(e.start - 16, 0):e.end + 16]!r}") from None


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

class NonFiniteLossError(NonFiniteError):
    pass


class CheckpointError(AhmcaError):
    pass


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class CorruptPayloadError(CheckpointError):
    pass

