"""Parser for Intel-syntax x86-64 assembly.

The datasets used by the GRANITE paper (the Ithemal dataset and BHive) store
basic blocks as short snippets of Intel-syntax assembly, one instruction per
line, exactly like the example block in Table 1 of the paper::

    CMP R15D, 1
    SBB EAX, EAX
    AND EAX, 0x8
    MOV DWORD PTR [RBP - 3], EAX

This module converts that textual form into :class:`repro.isa.Instruction`
objects.  It handles register operands, integer and floating point immediate
values, the full ``segment:[base + index*scale + displacement]`` addressing
syntax with optional size annotations (``DWORD PTR`` etc.), instruction
prefixes (``LOCK``, ``REP`` …), labels, and comments.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.isa.instructions import KNOWN_PREFIXES, Instruction
from repro.isa.operands import MemoryReference, Operand
from repro.isa.registers import is_register_name

__all__ = ["AssemblyParseError", "parse_instruction", "parse_block_text"]


class AssemblyParseError(ValueError):
    """Raised when a line of assembly cannot be parsed."""


_SIZE_KEYWORDS = {
    "BYTE": 8,
    "WORD": 16,
    "DWORD": 32,
    "QWORD": 64,
    "TBYTE": 80,
    "XMMWORD": 128,
    "YMMWORD": 256,
    "ZMMWORD": 512,
    "OWORD": 128,
}

_COMMENT_RE = re.compile(r"(;|#|//).*$")
_LABEL_RE = re.compile(r"^\s*[0-9A-Za-z_.$]+:\s*")
_LINE_NUMBER_RE = re.compile(r"^\s*\d+\s*:\s*")


def _strip_comment(line: str) -> str:
    return _COMMENT_RE.sub("", line)


def _split_operands(text: str) -> List[str]:
    """Splits the operand list on commas that are not inside brackets."""
    operands: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "[" or char == "(":
            depth += 1
        elif char == "]" or char == ")":
            depth -= 1
        if char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return [operand for operand in operands if operand]


def _parse_integer(text: str) -> Optional[int]:
    token = text.strip().replace("_", "")
    try:
        if token.lower().startswith(("0x", "-0x", "+0x")):
            return int(token, 16)
        if token.lower().endswith("h") and any(c in "0123456789abcdefABCDEF" for c in token[:-1]):
            sign = 1
            body = token[:-1]
            if body.startswith("-"):
                sign, body = -1, body[1:]
            return sign * int(body, 16)
        return int(token, 10)
    except ValueError:
        return None


def _parse_float(text: str) -> Optional[float]:
    token = text.strip()
    if not re.fullmatch(r"[-+]?\d*\.\d+([eE][-+]?\d+)?", token):
        return None
    try:
        return float(token)
    except ValueError:  # pragma: no cover - defensive
        return None


def _parse_memory(text: str) -> MemoryReference:
    """Parses a memory operand such as ``DWORD PTR FS:[RAX + RBX*4 - 0x10]``."""
    working = text.strip()
    width_bits = 0

    size_match = re.match(r"^([A-Za-z]+)\s+PTR\s+", working, re.IGNORECASE)
    if size_match:
        keyword = size_match.group(1).upper()
        if keyword not in _SIZE_KEYWORDS:
            raise AssemblyParseError(f"unknown memory size keyword {keyword!r} in {text!r}")
        width_bits = _SIZE_KEYWORDS[keyword]
        working = working[size_match.end():]

    segment = None
    segment_match = re.match(r"^([A-Za-z]{2})\s*:\s*\[", working)
    if segment_match and is_register_name(segment_match.group(1)):
        segment = segment_match.group(1).upper()
        working = working[segment_match.end() - 1:]

    if not (working.startswith("[") and working.endswith("]")):
        raise AssemblyParseError(f"malformed memory operand: {text!r}")
    inner = working[1:-1].strip()
    if not inner:
        raise AssemblyParseError(f"empty memory operand: {text!r}")

    # Tokenize on + and - while keeping the sign attached to the term.
    terms: List[str] = []
    sign = "+"
    current: List[str] = []
    for char in inner:
        if char in "+-":
            term = "".join(current).strip()
            if term:
                terms.append(sign + term)
            elif terms:
                raise AssemblyParseError(f"malformed address expression: {text!r}")
            sign = char
            current = []
        else:
            current.append(char)
    term = "".join(current).strip()
    if term:
        terms.append(sign + term)

    base: Optional[str] = None
    index: Optional[str] = None
    scale = 1
    displacement = 0

    for signed_term in terms:
        term_sign = -1 if signed_term[0] == "-" else 1
        body = signed_term[1:].strip()
        scale_match = re.fullmatch(r"([A-Za-z0-9()]+)\s*\*\s*([1248])", body) or re.fullmatch(
            r"([1248])\s*\*\s*([A-Za-z0-9()]+)", body
        )
        if scale_match:
            left, right = scale_match.group(1), scale_match.group(2)
            register_token, scale_text = (left, right) if is_register_name(left) else (right, left)
            if not is_register_name(register_token):
                raise AssemblyParseError(f"bad scaled index in {text!r}")
            if index is not None:
                raise AssemblyParseError(f"multiple index registers in {text!r}")
            index = register_token.upper()
            scale = int(scale_text)
            continue
        if is_register_name(body):
            if base is None:
                base = body.upper()
            elif index is None:
                index = body.upper()
            else:
                raise AssemblyParseError(f"too many registers in address: {text!r}")
            continue
        value = _parse_integer(body)
        if value is None:
            # Symbolic displacements (e.g. RIP-relative labels) are treated
            # as a zero displacement; only their structure matters here.
            if re.fullmatch(r"[A-Za-z_.$@][\w.$@]*", body):
                continue
            raise AssemblyParseError(f"cannot parse address term {body!r} in {text!r}")
        displacement += term_sign * value

    return MemoryReference(
        base=base,
        index=index,
        scale=scale,
        displacement=displacement,
        segment=segment,
        width_bits=width_bits,
    )


def _parse_operand(text: str) -> Operand:
    token = text.strip()
    if not token:
        raise AssemblyParseError("empty operand")
    if "[" in token or re.match(r"^[A-Za-z]+\s+PTR\s+", token, re.IGNORECASE):
        return Operand.from_memory(_parse_memory(token))
    if is_register_name(token):
        return Operand.from_register(token)
    integer = _parse_integer(token)
    if integer is not None:
        return Operand.from_immediate(integer)
    floating = _parse_float(token)
    if floating is not None:
        return Operand.from_fp_immediate(floating)
    # Branch targets and other symbolic operands become zero immediates;
    # their value does not influence throughput.
    if re.fullmatch(r"[A-Za-z_.$@][\w.$@+-]*", token):
        return Operand.from_immediate(0)
    raise AssemblyParseError(f"cannot parse operand {token!r}")


def parse_instruction(line: str) -> Optional[Instruction]:
    """Parses a single line of Intel-syntax assembly.

    Returns None for blank lines, comment-only lines and label-only lines.

    Raises:
        AssemblyParseError: When the line looks like an instruction but
            cannot be parsed.
    """
    text = _strip_comment(line).strip()
    text = _LINE_NUMBER_RE.sub("", text)
    text = _LABEL_RE.sub("", text)
    if not text:
        return None

    parts = text.split(None, 1)
    prefixes: List[str] = []
    while parts and parts[0].upper() in KNOWN_PREFIXES:
        prefixes.append(parts[0].upper())
        text = parts[1] if len(parts) > 1 else ""
        parts = text.split(None, 1)
    if not parts:
        raise AssemblyParseError(f"prefix without an instruction: {line!r}")

    mnemonic = parts[0].upper()
    if not re.fullmatch(r"[A-Z][A-Z0-9.]*", mnemonic):
        raise AssemblyParseError(f"invalid mnemonic {mnemonic!r} in {line!r}")
    operand_text = parts[1] if len(parts) > 1 else ""
    operands = [_parse_operand(token) for token in _split_operands(operand_text)]
    return Instruction.create(mnemonic, operands, prefixes)


def parse_block_text(text: str) -> List[Instruction]:
    """Parses a multi-line assembly snippet into a list of instructions."""
    instructions: List[Instruction] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        try:
            instruction = parse_instruction(line)
        except AssemblyParseError as error:
            raise AssemblyParseError(f"line {line_number}: {error}") from error
        if instruction is not None:
            instructions.append(instruction)
    return instructions
