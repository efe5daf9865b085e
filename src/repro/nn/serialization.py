"""Saving and loading model parameters, crash-safely.

Checkpoints are plain ``.npz`` archives keyed by the parameter attribute
paths produced by :meth:`repro.nn.Module.named_parameters`, which makes them
portable, inspectable with numpy alone, and independent of pickling the
model classes.

Dtype contract: checkpoints always store the float64 master weights —
:meth:`~repro.nn.Module.state_dict` copies ``Parameter.data``, which is
float64 regardless of any ``inference_dtype`` the model serves in, and
:meth:`~repro.nn.Module.load_state_dict` coerces stored arrays back to
float64 on the way in.  Reduced-precision views (``Parameter.data_as``) are
derived caches keyed to the parameter version, never persisted; loading a
checkpoint bumps the versions, so a float32 serving replica re-casts from
the freshly loaded float64 weights on its next forward.  A checkpoint
round-trip therefore neither narrows weights nor silently upcasts a float32
inference configuration back to float64.

Durability contract: :func:`save_checkpoint` writes the archive to a
temporary sibling, fsyncs it, and renames it into place — a crash (or an
injected checkpoint-write fault) mid-save leaves the previous checkpoint
untouched, never a half-written archive under the real name.  The archive
embeds a CRC32 over every parameter array; :func:`checkpoint_to_dict`
recomputes it on load and raises :class:`CheckpointCorruptError` on
mismatch (or on an unreadable archive), and :func:`load_checkpoint` falls
back to the ``.bak`` predecessor the rename path keeps around.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Callable, Dict, Optional

import numpy as np

from repro.nn.module import Module

__all__ = [
    "CheckpointCorruptError",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_to_dict",
    "checkpoint_file",
]

#: The archive entry holding the integrity checksum (never a parameter
#: name: attribute paths cannot contain ``__`` prefixes *and* suffixes).
_CHECKSUM_KEY = "__checksum__"


class CheckpointCorruptError(RuntimeError):
    """A checkpoint failed its integrity check (or cannot be parsed)."""


def _npz_path(path: str) -> str:
    """The name the archive actually lands under.

    ``np.savez`` appends ``.npz`` to bare filenames; normalizing here keeps
    the temp-file + rename dance and the loader pointed at the same file.
    """
    return path if path.endswith(".npz") else path + ".npz"


def _backup_path(target: str) -> str:
    return target + ".bak"


def _state_checksum(state: Dict[str, np.ndarray]) -> int:
    """Order-independent CRC32 over names, dtypes, shapes and bytes."""
    digest = 0
    for name in sorted(state):
        values = np.ascontiguousarray(state[name])
        digest = zlib.crc32(name.encode("utf-8"), digest)
        digest = zlib.crc32(str(values.dtype).encode("utf-8"), digest)
        digest = zlib.crc32(str(values.shape).encode("utf-8"), digest)
        digest = zlib.crc32(values.tobytes(), digest)
    return digest


def save_checkpoint(
    module: Module,
    path: str,
    fault_hook: Optional[Callable[[str], None]] = None,
) -> str:
    """Atomically saves every parameter of ``module`` to ``path``.

    The archive is written (and fsynced) under a temporary name first and
    renamed into place, demoting any existing checkpoint to ``.bak``; a
    failure at any point before the final rename leaves the previous
    checkpoint bytes untouched.  Returns the path the archive landed under
    (``path`` with ``.npz`` appended if it lacked the extension).

    Args:
        module: The model whose ``state_dict()`` to persist.
        path: Target filename.
        fault_hook: Test seam for crash-safety: called with the temp path
            after the bytes are durable but *before* the rename.  If it
            raises, the temp file is removed and the target never changes —
            exactly the window a real crash would hit.
    """
    state = module.state_dict()
    target = _npz_path(path)
    directory = os.path.dirname(os.path.abspath(target))
    os.makedirs(directory, exist_ok=True)
    checksum = np.array([_state_checksum(state)], dtype=np.uint64)
    temp = target + ".tmp"
    try:
        with open(temp, "wb") as handle:
            np.savez(handle, **{_CHECKSUM_KEY: checksum}, **state)
            handle.flush()
            os.fsync(handle.fileno())
        if fault_hook is not None:
            fault_hook(temp)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise
    if os.path.exists(target):
        os.replace(target, _backup_path(target))
    os.replace(temp, target)
    return target


def checkpoint_file(path: str) -> str:
    """The regular file a checkpoint ``path`` names: ``path`` itself, or its
    ``.npz`` spelling when nothing is at ``path``.

    Raises:
        FileNotFoundError: Nothing at either name, or what is there is not a
            regular file (opening a FIFO would block the loader forever).
    """
    if not os.path.exists(path):
        normalized = _npz_path(path)
        if normalized == path or not os.path.exists(normalized):
            raise FileNotFoundError(f"checkpoint not found: {path}")
        path = normalized
    if not os.path.isfile(path):
        raise FileNotFoundError(f"checkpoint is not a regular file: {path}")
    return path


def checkpoint_to_dict(path: str) -> Dict[str, np.ndarray]:
    """Loads a checkpoint file into a plain ``{name: array}`` dictionary.

    Raises:
        FileNotFoundError: No regular file at ``path`` (or its ``.npz``
            spelling); see :func:`checkpoint_file`.
        CheckpointCorruptError: The archive is unreadable, or its embedded
            checksum does not match the recomputed one.  Legacy archives
            without a checksum entry load unverified.
    """
    path = checkpoint_file(path)
    try:
        with np.load(path) as archive:
            state = {name: archive[name] for name in archive.files}
    except (
        ValueError,
        OSError,
        EOFError,
        KeyError,
        zlib.error,
        zipfile.BadZipFile,
    ) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is unreadable: {exc}"
        ) from exc
    stored = state.pop(_CHECKSUM_KEY, None)
    if stored is not None and int(stored[0]) != _state_checksum(state):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} failed its integrity check "
            f"(stored checksum does not match the parameter bytes)"
        )
    return state


def load_checkpoint(module: Module, path: str, fallback: bool = True) -> str:
    """Restores parameters saved by :func:`save_checkpoint` into ``module``.

    A corrupt primary falls back to the ``.bak`` predecessor that
    :func:`save_checkpoint`'s rename path keeps (``fallback=False``
    disables this and re-raises instead).  Returns the path actually
    loaded, so callers can log when a fallback happened.

    Raises:
        CheckpointCorruptError: The primary is corrupt and no loadable
            backup exists.
    """
    try:
        module.load_state_dict(checkpoint_to_dict(path))
        return path
    except CheckpointCorruptError:
        backup = _backup_path(_npz_path(path))
        if not fallback or not os.path.exists(backup):
            raise
        module.load_state_dict(checkpoint_to_dict(backup))
        return backup
