"""Sequence download from b-files, with an on-disk cache.

b-files are ASCII lines ``index value`` with ``#`` comments; the first
index becomes the sequence offset.  The download URL template and the
cache directory come from ``ANSATZKIT_OEIS_URL`` and ``ANSATZKIT_CACHE``.
Cache writes go through a temp file and an atomic rename.
"""

import os
import re
import tempfile
import time

from .errors import BFileParseError, NetworkError, NotFound
from .sequences import Sequence

DEFAULT_URL_TEMPLATE = "https://oeis.org/{id}/b{digits}.txt"

_ID_PATTERN = re.compile(r"^A(\d{6,})$")


def normalize_id(sequence_id):
    sequence_id = sequence_id.strip().upper()
    if re.fullmatch(r"A\d+", sequence_id):
        digits = sequence_id[1:]
        if len(digits) < 6:
            digits = digits.zfill(6)
        sequence_id = "A" + digits
    match = _ID_PATTERN.match(sequence_id)
    if not match:
        raise NotFound(f"{sequence_id!r} is not a sequence id")
    return sequence_id


def parse_bfile(text):
    """List of (index, value) pairs from b-file text."""
    entries = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise BFileParseError(line_number, line)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(line_number, line) from None
        entries.append((index, value))
    return entries


def _sequence_from_entries(entries, sequence_id):
    if not entries:
        raise BFileParseError(0, f"empty b-file for {sequence_id}")
    offset = entries[0][0]
    terms = []
    for position, (index, value) in enumerate(entries):
        if index != offset + position:
            raise BFileParseError(position + 1, f"non-contiguous index {index}")
        terms.append(value)
    if offset < 0:
        # negative-offset sequences: keep the tail starting at index 0
        terms = terms[-offset:]
        offset = 0
    return Sequence(terms, offset)


def cache_directory():
    path = os.environ.get("ANSATZKIT_CACHE")
    if path:
        return path
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
        "ansatzkit",
    )


def _cache_path(sequence_id):
    return os.path.join(cache_directory(), f"b{sequence_id[1:]}.txt")


def _store_atomically(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    handle, temp_path = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=".download-"
    )
    try:
        with os.fdopen(handle, "w") as fh:
            fh.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def fetch(sequence_id, refresh=False, retries=2, timeout=30.0):
    """Sequence for an id, from cache when possible.

    Raises NotFound for a missing id, NetworkError after exhausting
    retries, BFileParseError for malformed content.
    """
    sequence_id = normalize_id(sequence_id)
    path = _cache_path(sequence_id)
    if not refresh and os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
        return _sequence_from_entries(parse_bfile(text), sequence_id)
    # imported here: urllib.request is over a quarter of the package's import
    # time, and only a download needs it
    import urllib.error
    import urllib.request

    template = os.environ.get("ANSATZKIT_OEIS_URL", DEFAULT_URL_TEMPLATE)
    url = template.format(id=sequence_id, digits=sequence_id[1:])
    last_error = None
    for attempt in range(retries + 1):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                text = response.read().decode("utf-8", errors="replace")
            break
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                raise NotFound(f"{sequence_id} does not exist upstream") from None
            last_error = exc
        except (urllib.error.URLError, OSError) as exc:
            if isinstance(getattr(exc, "reason", None), FileNotFoundError) or isinstance(
                exc, FileNotFoundError
            ):
                raise NotFound(f"{sequence_id} does not exist upstream") from None
            last_error = exc
        if attempt < retries:
            time.sleep(0.2 * (attempt + 1))
    else:
        raise NetworkError(f"could not download {url}: {last_error}")
    sequence = _sequence_from_entries(parse_bfile(text), sequence_id)
    _store_atomically(path, text)
    return sequence
