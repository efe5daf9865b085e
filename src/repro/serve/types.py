"""Public envelope types and errors shared by every serving front end.

This module is the bottom of the ``repro.serve`` dependency stack: the
request/response envelopes (:class:`PredictionRequest`,
:class:`PredictionResponse`) and the error taxonomy live here so that the
in-process front ends (:mod:`repro.serve.service`,
:mod:`repro.serve.async_service`) and the network front end
(:mod:`repro.serve.http`) all speak exactly the same types.

Every serving error carries a machine-readable :class:`ReasonCode` in its
``code`` attribute.  Transport layers map codes — never message strings —
to their own status space (the HTTP front end maps ``QUEUE_FULL`` to 429,
``DEADLINE_EXPIRED`` to 408, ``SERVICE_CLOSED`` to 503, and so on), so
rewording an error message can never change protocol behaviour.
"""

from __future__ import annotations

import enum
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isa.basic_block import BasicBlock

__all__ = [
    "ReasonCode",
    "ServeError",
    "QueueFullError",
    "RequestExpiredError",
    "ServiceClosedError",
    "UnknownModelError",
    "AuthenticationError",
    "AuthorizationError",
    "InvalidRequestError",
    "PredictionRequest",
    "PredictionResponse",
]


class ReasonCode(enum.Enum):
    """Machine-readable reason of a rejected / failed serving request.

    Transport front ends dispatch on these values (the HTTP server maps
    them to status codes); the string values are what goes over the wire
    in error payloads.
    """

    #: The request queue is at capacity (back-pressure rejection).
    QUEUE_FULL = "queue_full"
    #: The request's per-request latency budget ran out before dispatch.
    DEADLINE_EXPIRED = "deadline_expired"
    #: The service / queue / registry is shutting down or closed.
    SERVICE_CLOSED = "service_closed"
    #: No model variant registered under the requested name.
    UNKNOWN_MODEL = "unknown_model"
    #: Missing or unrecognised API key.
    UNAUTHENTICATED = "unauthenticated"
    #: Valid tenant, but the requested model is not on its allow-list.
    FORBIDDEN = "forbidden"
    #: Malformed request payload (bad JSON, wrong field types, unknown
    #: task filters).
    INVALID_REQUEST = "invalid_request"
    #: Unexpected server-side failure.
    INTERNAL = "internal"


class ServeError(Exception):
    """Base of every serving error; carries a :class:`ReasonCode`.

    Subclasses derive from this class alone, with no builtin second base:
    catch a serving error by its type (or as ``ServeError``), never as a
    ``ValueError`` or ``RuntimeError``.
    """

    code: ReasonCode = ReasonCode.INTERNAL


class QueueFullError(ServeError):
    """The queue is at capacity and the back-pressure policy rejected."""

    code = ReasonCode.QUEUE_FULL


class RequestExpiredError(ServeError):
    """A request's per-request deadline passed before it was dispatched."""

    code = ReasonCode.DEADLINE_EXPIRED


class ServiceClosedError(ServeError):
    """The service (or its queue / worker pool / registry) is closed."""

    code = ReasonCode.SERVICE_CLOSED


class UnknownModelError(ServeError):
    """No model variant is registered under the requested name."""

    code = ReasonCode.UNKNOWN_MODEL


class AuthenticationError(ServeError):
    """The request carried no API key, or one no tenant owns."""

    code = ReasonCode.UNAUTHENTICATED


class AuthorizationError(ServeError):
    """The tenant is authenticated but may not use the requested model."""

    code = ReasonCode.FORBIDDEN


class InvalidRequestError(ServeError):
    """The request payload is malformed."""

    code = ReasonCode.INVALID_REQUEST


def load_json(text: Union[str, bytes], what: str) -> Any:
    """Parses one JSON document; a malformed one raises
    :class:`InvalidRequestError` naming ``what``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InvalidRequestError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidRequestError(f"{what} nests JSON too deeply") from None


def json_field(value: Any, kind: type, where: str) -> Any:
    """Returns ``value`` when it is a JSON value of type ``kind``, else
    raises :class:`InvalidRequestError` naming the field ``where``.

    A ``float`` is any finite number (``json`` reads ``NaN`` and
    ``Infinity``); a ``bool`` is never a number.
    """
    number = kind in (int, float)
    if (
        not isinstance(value, (int, float) if kind is float else kind)
        or (number and isinstance(value, bool))
        or (kind is float and not abs(value) <= sys.float_info.max)
    ):
        expected = "a finite number" if kind is float else kind.__name__
        raise InvalidRequestError(f"{where} must be {expected}, got {type(value).__name__}")
    return value


_REQUEST_COUNTER = itertools.count()


def _canonical_text(block: Union[BasicBlock, str]) -> str:
    """Returns the canonical Intel-syntax text of a block (or passes text through)."""
    if isinstance(block, BasicBlock):
        return block.canonical_text()
    return str(block)


@dataclass(frozen=True)
class PredictionRequest:
    """One client request: predict the throughput of a list of blocks.

    Attributes:
        block_texts: Canonical Intel-syntax text of every block, one
            multi-line string per block.
        request_id: Stable identifier echoed in the response.
        tasks: Optional subset of the model's microarchitecture heads to
            return; ``None`` returns all of them.
    """

    block_texts: Tuple[str, ...]
    request_id: str
    tasks: Optional[Tuple[str, ...]] = None

    @staticmethod
    def of(
        blocks: Sequence[Union[BasicBlock, str]],
        request_id: Optional[str] = None,
        tasks: Optional[Sequence[str]] = None,
    ) -> "PredictionRequest":
        """Builds a request from blocks or block texts."""
        if request_id is None:
            request_id = f"request-{next(_REQUEST_COUNTER)}"
        return PredictionRequest(
            block_texts=tuple(_canonical_text(block) for block in blocks),
            request_id=request_id,
            tasks=tuple(tasks) if tasks is not None else None,
        )

    @property
    def num_blocks(self) -> int:
        return len(self.block_texts)


@dataclass
class PredictionResponse:
    """Per-request result: one throughput per block per task.

    Attributes:
        request_id: Identifier of the originating request.
        predictions: ``{task: [num_blocks] float array}``.
        num_blocks: Number of blocks predicted.
        seconds: Wall-clock service time of the request (coalescing makes
            this shared across requests of the same submission).
        degraded: True when the predictions were served from the stale
            prediction cache because the live pool was unavailable.
    """

    request_id: str
    predictions: Dict[str, np.ndarray]
    num_blocks: int
    seconds: float = 0.0
    degraded: bool = False
