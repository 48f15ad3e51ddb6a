"""Error taxonomy for the OpenFlow substrate."""


class OpenFlowError(Exception):
    """Base class for all errors raised by the OpenFlow substrate.  A fault
    found walking a pipeline also has a stable *kind* (``"group-loop"``,
    ``"missing-table"``, ...) and a *detail* locating it (``"7"``)."""

    def __init__(self, message: str = "", kind: str = "", detail: object = ""):
        super().__init__(message)
        self.kind, self.detail = kind, str(detail)


class TableError(OpenFlowError):
    """A flow-table operation failed (bad table id, duplicate entry, ...)."""


class TableFullError(TableError):
    """An install hit a table's capacity and no entry could be evicted.

    Models OpenFlow's ``OFPFMFC_TABLE_FULL`` flow-mod failure.  Carries the
    table id and capacity so callers (and the chaos oracle) can report the
    pressure point precisely.
    """

    def __init__(self, table_id: int, capacity: int) -> None:
        super().__init__(
            f"table {table_id} full ({capacity} entries) and no lower-priority "
            f"entry to evict"
        )
        self.table_id = table_id
        self.capacity = capacity


class InstallError(TableError):
    """A program push onto a switch was interrupted partway.

    Raised by :meth:`repro.openflow.switch.Switch.adopt_program` when an
    active :class:`~repro.openflow.switch.SwitchFaultConfig` interrupts the
    install; the already-installed prefix stays behind, so the switch's
    inventory digest drifts from the expected program until the controller
    retries.
    """


class GroupError(OpenFlowError):
    """A group-table operation failed (unknown group, bad bucket, loop, ...)."""


class PipelineError(OpenFlowError):
    """Pipeline execution failed (goto backwards, missing table, ...)."""


class MatchError(OpenFlowError):
    """A match expression is malformed (bad mask, negative value, ...)."""


class ActionError(OpenFlowError):
    """An action is malformed or cannot be applied to the packet."""
