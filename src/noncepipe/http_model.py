"""HTTP value objects shared by every layer of the simulator.

Models just enough of HTTP for credential-flow analysis: URLs and origins,
ordered form entry lists, request bodies that re-encode bit-exactly, and
immutable request/response records. Nothing here knows about extensions,
password managers, or the pipeline.
"""

from __future__ import annotations

import hashlib
import re
from collections import namedtuple
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
    "held_secrets",
    "holds_secret",
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


def held_secrets(texts: Sequence[str], secrets: Iterable[str]) -> set[str]:
    """The secrets that some text holds verbatim or form-encoded (a urlencoded
    body's shape): the leak oracle's rule. The texts are joined with NUL once;
    a secret that is empty or holds a NUL is tested text by text, as the join
    would answer it otherwise ("" is in the join of no texts; a NUL could span two)."""
    joined = "\0".join(texts)
    held = set()
    for secret in secrets:
        encoded = _quote_form(secret)  # escapes NUL, so it never spans two texts
        if secret and "\0" not in secret:
            if secret in joined or encoded in joined:
                held.add(secret)
        elif any(secret in text or encoded in text for text in texts):
            held.add(secret)
    return held


def holds_secret(texts: Sequence[str], secret: str) -> bool:
    """Whether some text holds `secret`, by `held_secrets`' rule."""
    return bool(held_secrets(texts, (secret,)))


def urlencode_entries(entries: Sequence[tuple[str, str]]) -> str:
    """Encode ordered (name, value) pairs as application/x-www-form-urlencoded."""
    return "&".join([f"{_quote_form(name)}={_quote_form(value)}" for name, value in entries])


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


def checked_make(cls, fields):
    """`_make`, and so `_replace`, of a checked record: through `cls`, whose
    `__new__` checks every new value, instead of around it."""
    return cls(*fields)


def read_only(self, name: str, value: object = None) -> None:
    """`__setattr__` and `__delattr__` of a record whose instance dict holds
    caches: nothing outside it may set or delete an attribute."""
    raise AttributeError(f"cannot set {name!r}: a {type(self).__name__} is read-only")


class Origin(namedtuple("Origin", "scheme host port")):
    """Security origin: the (scheme, host, port) triple, all significant."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, scheme: str, host: str, port: int) -> "Origin":
        return tuple.__new__(cls, (scheme, host, port)).__post_init__()

    def __post_init__(self) -> "Origin":
        """Check a new origin; returns it with its host in lower case."""
        scheme, host, port = self
        if scheme not in DEFAULT_PORTS:
            raise InvalidUrl(f"unsupported scheme {scheme!r}")
        if host.split() != [host]:  # empty or holds whitespace
            raise InvalidUrl(f"bad host {host!r}")
        if not 1 <= port <= 65535:
            raise InvalidUrl(f"port out of range: {port}")
        lowered = host.lower()
        return self if lowered == host else tuple.__new__(type(self), (scheme, lowered, port))

    def __str__(self) -> str:
        if self.port == DEFAULT_PORTS[self.scheme]:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Origin":
        url = Url.parse(text if "://" in text else f"https://{text}")
        return url.origin


class Url(namedtuple("Url", "scheme host port path query origin")):
    """Absolute http(s) URL with an ordered, already-decoded query.

    `origin` is derived from scheme, host and port: one passed in, as a copy
    (`_replace`) passes the old one, is ignored. No `__slots__`: the
    instance dict keeps `to_string()`, built on first use, and no attribute
    can be set from outside.
    """

    _make = classmethod(checked_make)
    __setattr__ = __delattr__ = read_only

    def __new__(
        cls, scheme: str, host: str, port: int, path: str = "/", query: FormEntries = (),
        origin: Optional[Origin] = None,
    ) -> "Url":
        origin = Origin(scheme, host, port)  # validates them
        if not path.startswith("/"):
            raise InvalidUrl(f"path must be absolute, got {path!r}")
        query = tuple([(str(n), str(v)) for n, v in query])
        return tuple.__new__(cls, (scheme, origin.host, port, path, query, origin))

    def __repr__(self) -> str:
        return (
            f"Url(scheme={self.scheme!r}, host={self.host!r}, port={self.port!r}, "
            f"path={self.path!r}, query={self.query!r})"
        )

    @classmethod
    def parse(cls, text: str) -> "Url":
        scheme, sep, rest = text.partition("://")
        if not sep:
            raise InvalidUrl(f"missing scheme in {text!r}")
        if scheme not in DEFAULT_PORTS:
            raise InvalidUrl(f"unsupported scheme {scheme!r}")
        rest = rest.partition("#")[0]  # a browser never sends the fragment
        netloc = rest.split("/", 1)[0].split("?", 1)[0]
        if "@" in netloc:
            raise InvalidUrl(f"userinfo in {text!r}")
        path, qmark, query_text = rest[len(netloc):].partition("?")
        host, colon, port_text = netloc.partition(":")
        if colon:
            # ASCII digits only: int() also reads "4_43", " 443", "+443", "٤٤٣" as 443
            if not (port_text.isascii() and port_text.isdigit()):
                raise InvalidUrl(f"bad port in {text!r}")
            port = int(port_text)
        else:
            port = DEFAULT_PORTS[scheme]
        query = decode_urlencoded(query_text) if qmark else ()
        return cls(scheme, host, port, path or "/", query)

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
        return self._replace(query=tuple(entries))

    def __str__(self) -> str:
        return self.to_string()


# ---------------------------------------------------------------------------
# bodies and records
# ---------------------------------------------------------------------------


class RequestBody(namedtuple("RequestBody", "entries raw")):
    """An urlencoded entry list plus its exact wire bytes.

    `raw` is always derivable from `entries`; the pair is kept together so
    substitution can edit entries and re-encode without drifting from what
    a byte-level observer would have seen. A body built directly is checked
    by encoding its entries again; the factories below encode once and have
    nothing to check. So `entries` is always what decoding `raw` gives, and
    readers may take either. No `__slots__`: the instance dict keeps
    `digest()`, hashed on first use, and no attribute can be set from
    outside.
    """

    _make = classmethod(checked_make)
    __setattr__ = __delattr__ = read_only

    def __new__(cls, entries: FormEntries, raw: bytes) -> "RequestBody":
        entries = tuple([(str(n), str(v)) for n, v in entries])
        if raw != urlencode_entries(entries).encode("ascii"):
            raise MalformedBody("raw bytes do not match the encoded entry list")
        return tuple.__new__(cls, (entries, raw))

    @classmethod
    def urlencoded(cls, entries: Sequence[tuple[str, str]]) -> "RequestBody":
        """The body of `entries`, with `raw` encoded here and so not re-checked."""
        entries = tuple([(str(n), str(v)) for n, v in entries])
        return tuple.__new__(cls, (entries, urlencode_entries(entries).encode("ascii")))

    @classmethod
    def encoded(cls, entries: FormEntries) -> "RequestBody":
        """The body of `entries`, already a tuple of string pairs: encoded once."""
        return tuple.__new__(cls, (entries, urlencode_entries(entries).encode("ascii")))

    with_entries = urlencoded  # a body's edit is a new body of the edited entries

    def digest(self) -> str:
        """sha256 hex of `raw`, as transcript lines record it: one hash per
        body, however many readers."""
        try:
            return self._digest
        except AttributeError:  # first use
            digest = sha256_hex(self.raw)
            object.__setattr__(self, "_digest", digest)
            return digest


class ChannelSecurity(Enum):
    """Transport quality of the connection carrying a request."""

    __hash__ = object.__hash__  # by identity: see pipeline.Stage

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


def _refuse_body(body: object) -> None:  # a body that is no RequestBody, else a GET's
    if not isinstance(body, RequestBody):
        raise TypeError(f"a request body is a RequestBody, not {type(body).__name__}")
    raise ValueError("GET requests carry entries in the query, not a body")


_REQUEST_FIELDS = "request_id method url headers body channel_security source_page parent_request_id"


class WebRequestRecord(namedtuple("WebRequestRecord", _REQUEST_FIELDS)):
    """One outgoing request as the network layer sees it.

    Immutable; pipeline stages that change a request (substitution, header
    injection, redirects) produce a new record. `parent_request_id` links
    redirect hops back to the request that spawned them.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls, request_id: int, method: str, url: Url, headers: tuple[tuple[str, str], ...] = (),
        body: Optional[RequestBody] = None,
        channel_security: ChannelSecurity = ChannelSecurity.GOOD_TLS,
        source_page: object = None, parent_request_id: Optional[int] = None,
    ) -> "WebRequestRecord":
        if method not in ("GET", "POST"):
            raise ValueError(f"unsupported method {method!r}")
        if body is not None and (method == "GET" or not isinstance(body, RequestBody)):
            _refuse_body(body)
        headers = tuple([(str(n), str(v)) for n, v in headers])
        fields = request_id, method, url, headers, body, channel_security, source_page, parent_request_id
        return tuple.__new__(cls, fields)

    def with_body(self, body: RequestBody) -> "WebRequestRecord":
        """This request carrying `body`: only the new value is checked."""
        if self.method == "GET" or not isinstance(body, RequestBody):
            _refuse_body(body)
        request_id, method, url, headers, _, channel, page, parent = self
        return tuple.__new__(type(self), (request_id, method, url, headers, body, channel, page, parent))

    def header(self, name: str) -> Optional[str]:
        return header_value(self.headers, name)

    def body_bytes(self) -> Optional[bytes]:
        return self.body.raw if self.body is not None else None


class WebResponseRecord(namedtuple("WebResponseRecord", "request_id status headers body")):
    """Server response heading back through the pipeline to the page."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls, request_id: int, status: int, headers: tuple[tuple[str, str], ...] = (), body: bytes = b""
    ) -> "WebResponseRecord":
        headers = tuple([(str(n), str(v)) for n, v in headers]) if headers else ()
        return tuple.__new__(cls, (request_id, status, headers, body))

    def header(self, name: str) -> Optional[str]:
        return header_value(self.headers, name)

    def without_headers(self, names: Iterable[str]) -> "WebResponseRecord":
        drop = {n.lower() for n in names}
        kept = tuple((k, v) for k, v in self.headers if k.lower() not in drop)
        return self._replace(headers=kept)
