"""HTTP value objects shared by every layer of the simulator.

Models just enough of HTTP for credential-flow analysis: URLs and origins,
ordered form entry lists, request bodies that re-encode bit-exactly, and
immutable request/response records. Nothing here knows about extensions,
password managers, or the pipeline.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "ChannelSecurity",
    "FormEntries",
    "InvalidUrl",
    "MalformedBody",
    "Origin",
    "RequestBody",
    "Url",
    "WebRequestRecord",
    "WebResponseRecord",
    "channel_for",
    "decode_urlencoded",
    "header_value",
    "sha256_hex",
    "urlencode_entries",
]

# Ordered (name, value) pairs; duplicates allowed, order significant.
FormEntries = tuple[tuple[str, str], ...]

DEFAULT_PORTS = {"http": 80, "https": 443}

URLENCODED = "application/x-www-form-urlencoded"


class MalformedBody(ValueError):
    """A body or query string cannot be decoded back into entries."""


class InvalidUrl(ValueError):
    """A URL string violates the simulator's structural constraints."""


def header_value(headers: Iterable[tuple[str, str]], name: str) -> Optional[str]:
    """The value of the first header called `name`, in any case, or None."""
    wanted = name.lower()
    for key, value in headers:
        if key.lower() == wanted:
            return value
    return None


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# form-urlencoding
#
# Byte-exact rules: space encodes as '+'; bytes outside [A-Za-z0-9*-._] are
# percent-encoded as uppercase hex over the UTF-8 encoding. Note '~' is
# escaped here, unlike urllib.parse.quote_plus.
# ---------------------------------------------------------------------------

_FORM_SAFE = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789*-._"
_ALL_SAFE = re.compile(f"[{re.escape(_FORM_SAFE.decode('ascii'))}]*")


def _quote_table() -> tuple[str, ...]:
    """What each UTF-8 byte encodes as: itself if safe, '+' if space, else %XX."""
    table = [f"%{byte:02X}" for byte in range(256)]
    for byte in _FORM_SAFE:
        table[byte] = chr(byte)
    table[0x20] = "+"
    return tuple(table)


_QUOTE = _quote_table()
# every two-hex-digit escape body, in any mix of case, to its byte
_UNHEX = {
    f"{hi}{lo}": int(hi + lo, 16)
    for hi in "0123456789abcdefABCDEF"
    for lo in "0123456789abcdefABCDEF"
}


def _quote_form(text: str) -> str:
    if _ALL_SAFE.fullmatch(text):  # most names and values: skips the byte walk
        return text
    return "".join([_QUOTE[byte] for byte in text.encode("utf-8")])


def _unquote_form(text: str) -> str:
    text = text.replace("+", " ")
    head, *escaped = text.split("%")
    raw = bytearray(head.encode("utf-8"))
    offset = len(head)  # of the '%' that starts the next chunk
    for chunk in escaped:
        byte = _UNHEX.get(chunk[:2])
        if byte is None:
            raise MalformedBody(f"truncated or invalid percent escape at offset {offset}")
        raw.append(byte)
        raw += chunk[2:].encode("utf-8")
        offset += 1 + len(chunk)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedBody(f"percent-decoded bytes are not valid UTF-8: {exc}") from exc


def urlencode_entries(entries: Sequence[tuple[str, str]]) -> str:
    """Encode ordered (name, value) pairs as application/x-www-form-urlencoded."""
    return "&".join(f"{_quote_form(name)}={_quote_form(value)}" for name, value in entries)


def decode_urlencoded(text: str | bytes) -> FormEntries:
    """Inverse of urlencode_entries. Raises MalformedBody on bad escapes."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedBody("urlencoded body contains non-ASCII bytes") from exc
    if text == "":
        return ()
    pairs: list[tuple[str, str]] = []
    for chunk in text.split("&"):
        name, sep, value = chunk.partition("=")
        pairs.append((_unquote_form(name), _unquote_form(value) if sep else ""))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# URLs and origins
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Origin:
    """Security origin: the (scheme, host, port) triple, all significant."""

    scheme: str
    host: str
    port: int

    def __post_init__(self) -> None:
        if self.scheme not in DEFAULT_PORTS:
            raise InvalidUrl(f"unsupported scheme {self.scheme!r}")
        if self.host.split() != [self.host]:  # empty or holds whitespace
            raise InvalidUrl(f"bad host {self.host!r}")
        if not 1 <= self.port <= 65535:
            raise InvalidUrl(f"port out of range: {self.port}")
        object.__setattr__(self, "host", self.host.lower())

    def __str__(self) -> str:
        if self.port == DEFAULT_PORTS[self.scheme]:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Origin":
        url = Url.parse(text if "://" in text else f"https://{text}")
        return url.origin


@dataclass(frozen=True, slots=True)
class Url:
    """Absolute http(s) URL with an ordered, already-decoded query."""

    scheme: str
    host: str
    port: int
    path: str = "/"
    query: FormEntries = ()
    # derived from scheme/host/port, which equality and hashing already cover
    origin: Origin = field(init=False, repr=False, compare=False)
    # to_string(), built on first use
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        origin = Origin(self.scheme, self.host, self.port)  # validates them
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "host", origin.host)
        if not self.path.startswith("/"):
            raise InvalidUrl(f"path must be absolute, got {self.path!r}")
        object.__setattr__(self, "query", tuple((str(n), str(v)) for n, v in self.query))

    @classmethod
    def parse(cls, text: str) -> "Url":
        scheme, sep, rest = text.partition("://")
        if not sep:
            raise InvalidUrl(f"missing scheme in {text!r}")
        if scheme not in DEFAULT_PORTS:
            raise InvalidUrl(f"unsupported scheme {scheme!r}")
        netloc, slash, tail = rest.partition("/")
        path_and_query = slash + tail if slash else "/"
        path, qmark, query_text = path_and_query.partition("?")
        host, colon, port_text = netloc.partition(":")
        if colon:
            try:
                port = int(port_text)
            except ValueError as exc:
                raise InvalidUrl(f"bad port in {text!r}") from exc
        else:
            port = DEFAULT_PORTS[scheme]
        query = decode_urlencoded(query_text) if qmark else ()
        return cls(scheme=scheme, host=host, port=port, path=path or "/", query=query)

    def to_string(self) -> str:
        try:
            return self._text
        except AttributeError:  # first use
            text = f"{self.origin}{self.path}"
            if self.query:
                text = f"{text}?{urlencode_entries(self.query)}"
            object.__setattr__(self, "_text", text)
            return text

    def with_query(self, entries: Sequence[tuple[str, str]]) -> "Url":
        return replace(self, query=tuple(entries))

    def __str__(self) -> str:
        return self.to_string()


# ---------------------------------------------------------------------------
# bodies and records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RequestBody:
    """Entry list plus its exact wire bytes.

    `raw` is always derivable from `entries` and `content_type`; the pair is
    kept together so substitution can edit entries and re-encode without
    drifting from what a byte-level observer would have seen. A body built
    directly is checked by encoding its entries again; the factories below
    encode once and have nothing to check. So `entries` is always what
    decoding `raw` gives, and readers may take either.
    """

    content_type: str
    entries: FormEntries
    raw: bytes
    # digest(), hashed on first use: one hash per body, however many readers
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((str(n), str(v)) for n, v in self.entries))
        if self.raw != _encode_for(self.content_type, self.entries):
            raise MalformedBody("raw bytes do not match the encoded entry list")

    @classmethod
    def _encoded(cls, content_type: str, entries: Sequence[tuple[str, str]]) -> "RequestBody":
        """The body of `entries`, with `raw` encoded here and so not re-checked."""
        entries = tuple(entries)
        raw = _encode_for(content_type, entries)
        body = object.__new__(cls)
        object.__setattr__(body, "content_type", content_type)
        object.__setattr__(body, "entries", tuple((str(n), str(v)) for n, v in entries))
        object.__setattr__(body, "raw", raw)
        return body

    @classmethod
    def urlencoded(cls, entries: Sequence[tuple[str, str]]) -> "RequestBody":
        return cls._encoded(URLENCODED, entries)

    def with_entries(self, entries: Sequence[tuple[str, str]]) -> "RequestBody":
        return self._encoded(self.content_type, entries)

    def digest(self) -> str:
        """sha256 hex of `raw`, as transcript lines record it."""
        try:
            return self._digest
        except AttributeError:  # first use
            digest = sha256_hex(self.raw)
            object.__setattr__(self, "_digest", digest)
            return digest


def _encode_for(content_type: str, entries: FormEntries) -> bytes:
    if content_type == URLENCODED:
        return urlencode_entries(entries).encode("ascii")
    raise MalformedBody(f"unsupported content type {content_type!r}")


class ChannelSecurity(Enum):
    """Transport quality of the connection carrying a request."""

    PLAIN_HTTP = "plain_http"
    GOOD_TLS = "good_tls"
    BAD_TLS = "bad_tls"


def channel_for(
    url: Url, tls_overrides: Mapping[Origin, ChannelSecurity]
) -> ChannelSecurity:
    """Transport of a request to `url`: plain for http, else the page's TLS
    override for the origin, else good TLS."""
    if url.scheme == "http":
        return ChannelSecurity.PLAIN_HTTP
    return tls_overrides.get(url.origin, ChannelSecurity.GOOD_TLS)


@dataclass(frozen=True, slots=True)
class WebRequestRecord:
    """One outgoing request as the network layer sees it.

    Immutable; pipeline stages that change a request (substitution, header
    injection, redirects) produce a new record. `parent_request_id` links
    redirect hops back to the request that spawned them.
    """

    request_id: int
    method: str
    url: Url
    headers: tuple[tuple[str, str], ...] = ()
    body: Optional[RequestBody] = None
    channel_security: ChannelSecurity = ChannelSecurity.GOOD_TLS
    source_page: object = None
    parent_request_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST"):
            raise ValueError(f"unsupported method {self.method!r}")
        if self.method == "GET" and self.body is not None:
            raise ValueError("GET requests carry entries in the query, not a body")
        object.__setattr__(self, "headers", tuple((str(n), str(v)) for n, v in self.headers))

    def header(self, name: str) -> Optional[str]:
        return header_value(self.headers, name)

    def body_bytes(self) -> Optional[bytes]:
        return self.body.raw if self.body is not None else None


@dataclass(frozen=True, slots=True)
class WebResponseRecord:
    """Server response heading back through the pipeline to the page."""

    request_id: int
    status: int
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes = b""

    def __post_init__(self) -> None:
        object.__setattr__(self, "headers", tuple((str(n), str(v)) for n, v in self.headers))

    def header(self, name: str) -> Optional[str]:
        return header_value(self.headers, name)

    def without_headers(self, names: Iterable[str]) -> "WebResponseRecord":
        drop = {n.lower() for n in names}
        kept = tuple((k, v) for k, v in self.headers if k.lower() not in drop)
        return replace(self, headers=kept)
