"""Exception types shared across the toolkit."""


class CamsieveError(Exception):
    """Base class for all camsieve-specific failures."""


class MalformedCapture(CamsieveError):
    """pcap file has a bad magic number or a truncated record."""


class OutOfOrderTimestamp(CamsieveError):
    """Packet arrived with a timestamp earlier than one already assembled."""


class EmptyDataset(CamsieveError):
    """Training requested on a dataset with no samples."""


class UncleanData(CamsieveError):
    """Dataset contains NaN or infinite feature values."""


class DimensionMismatch(CamsieveError):
    """Feature vector width does not match the model."""


class AllFeaturesPruned(CamsieveError):
    """Importance threshold removed every feature."""


class InsufficientSamples(CamsieveError):
    """A class has fewer samples than the number of folds."""


class CorruptModel(CamsieveError):
    """Model file failed its version or checksum check."""


class BadTaxonomy(CamsieveError):
    """Taxonomy file is not a JSON object mapping labels to known classes."""


class SchemaMismatch(CamsieveError):
    """CSV column layout does not match the frozen feature schema."""


class RowParseError(CamsieveError):
    """A CSV row could not be parsed; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        # both arguments in args: a copy unpickled from a worker is rebuilt from them
        super().__init__(row, message)
        self.row = row

    def __str__(self) -> str:
        row, message = self.args
        return f"row {row}: {message}"


class EmptyClass(CamsieveError):
    """Stratified split requested on an empty record set."""


class IoFailure(CamsieveError):
    """Generated output could not be written."""


class BadEncoding(CamsieveError):
    """A text input file is not UTF-8."""
