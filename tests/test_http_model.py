"""Wire-format primitives: form encoding, URLs, records.

The urlencoder is checked against urllib.parse.urlencode as an independent
oracle wherever the two agree ('~' is the single deliberate divergence:
this codec escapes it, quote_plus does not), plus frozen byte vectors.
"""

import hashlib
from urllib.parse import quote_plus, urlencode

import pytest
from hypothesis import example, given, strategies as st

from noncepipe.adversaries import find_leaks
from noncepipe.http_model import (
    URLENCODED,
    ChannelSecurity,
    InvalidUrl,
    MalformedBody,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    WebResponseRecord,
    _quote_form,
    _unquote_form,
    decode_urlencoded,
    holds_secret,
    sha256_hex,
    urlencode_entries,
)

form_text = st.text()
form_text_no_tilde = st.text().filter(lambda s: "~" not in s)
entry_lists = st.lists(st.tuples(form_text, form_text), max_size=8)


# ---------------------------------------------------------------------------
# urlencoding
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(form_text_no_tilde, form_text_no_tilde), max_size=8))
def test_urlencode_matches_urllib_oracle(entries):
    ours = urlencode_entries(entries)
    oracle = urlencode(entries, quote_via=quote_plus, safe="*")
    assert ours == oracle


FROZEN_VECTORS = [
    ((("k", "~"),), "k=%7E"),  # quote_plus would leave '~' bare
    ((("pass", "p@ss w0rd"),), "pass=p%40ss+w0rd"),
    ((("q", "é"),), "q=%C3%A9"),
    ((("a", "b"), ("a", "c")), "a=b&a=c"),
    ((("weird name", "v&=+"),), "weird+name=v%26%3D%2B"),
    ((), ""),
    ((("notes", "line one\r\n\r\nline two\r\n"),), "notes=line+one%0D%0A%0D%0Aline+two%0D%0A"),
    ((("pw", "%41+"),), "pw=%2541%2B"),  # an escape-like value is escaped, not kept
    ((("a", ""),), "a="),
    ((("", ""),), "="),
]


@pytest.mark.parametrize("entries,encoded", FROZEN_VECTORS)
def test_urlencode_frozen_vectors(entries, encoded):
    assert urlencode_entries(entries) == encoded
    assert decode_urlencoded(encoded) == tuple(entries)


@given(entry_lists)
def test_urlencoded_round_trip(entries):
    assert decode_urlencoded(urlencode_entries(entries)) == tuple(entries)


def test_decode_urlencoded_value_free_pair():
    # bare name without '=' decodes to an empty value
    assert decode_urlencoded("flag") == (("flag", ""),)
    assert decode_urlencoded("flag=") == (("flag", ""),)
    assert decode_urlencoded("=v") == (("", "v"),)


@pytest.mark.parametrize(
    "bad",
    ["a=%", "a=%2", "a=%G1", "a=%g1", "%ZZ=1"],
)
def test_decode_urlencoded_bad_escape(bad):
    with pytest.raises(MalformedBody):
        decode_urlencoded(bad)


def test_decode_urlencoded_invalid_utf8():
    # %FF alone cannot decode as UTF-8
    with pytest.raises(MalformedBody):
        decode_urlencoded("a=%FF")


def test_decode_urlencoded_non_ascii_bytes():
    with pytest.raises(MalformedBody):
        decode_urlencoded("a=é".encode("utf-8"))


def test_decode_urlencoded_accepts_ascii_bytes():
    assert decode_urlencoded(b"a=b+c") == (("a", "b c"),)


# ---------------------------------------------------------------------------
# the table-driven codec against the per-byte reference loops
# ---------------------------------------------------------------------------

_REFERENCE_SAFE = frozenset(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789*-._"
)
_REFERENCE_HEX = "0123456789abcdefABCDEF"


def reference_quote_form(text: str) -> str:
    out: list[str] = []
    for byte in text.encode("utf-8"):
        if byte in _REFERENCE_SAFE:
            out.append(chr(byte))
        elif byte == 0x20:
            out.append("+")
        else:
            out.append(f"%{byte:02X}")
    return "".join(out)


def reference_unquote_form(text: str) -> str:
    raw = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            if (
                i + 3 > len(text)
                or text[i + 1] not in _REFERENCE_HEX
                or text[i + 2] not in _REFERENCE_HEX
            ):
                raise MalformedBody(f"truncated or invalid percent escape at offset {i}")
            raw.append(int(text[i + 1 : i + 3], 16))
            i += 3
        elif ch == "+":
            raw.append(0x20)
            i += 1
        else:
            raw.extend(ch.encode("utf-8"))
            i += 1
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedBody(f"percent-decoded bytes are not valid UTF-8: {exc}") from exc


def _outcome(codec, text: str) -> tuple[str, str]:
    try:
        return "ok", codec(text)
    except MalformedBody as exc:
        return "MalformedBody", str(exc)


# Lone surrogates are left out: both codecs raise UnicodeEncodeError on them,
# but the position in its message differs (see the test after these).
_CODEC_PIECES = st.one_of(
    st.sampled_from(
        ["~", " ", "+", "%", "%2", "%G1", "%g1", "%ZZ", "%%", "%+1", "%41", "%7e",
         "%7E", "%20", "%2B", "%C3%A9", "%C3", "%FF", "%E2%82", "%F0%9F%98%80",
         "é", "€", "😀", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", "&", "="]
    ),
    st.characters(blacklist_categories=("Cs",)),
)
codec_text = st.lists(_CODEC_PIECES, max_size=24).map("".join)


@given(codec_text)
def test_quote_form_matches_reference(text):
    assert _quote_form(text) == reference_quote_form(text)


@given(codec_text)
def test_unquote_form_matches_reference(text):
    assert _outcome(_unquote_form, text) == _outcome(reference_unquote_form, text)


@pytest.mark.parametrize("text", ["\ud800", "ab\udfff", "%41\ud83d", "+\udc80%20"])
@pytest.mark.parametrize(
    "codec, reference",
    [(_quote_form, reference_quote_form), (_unquote_form, reference_unquote_form)],
    ids=["quote", "unquote"],
)
def test_codec_lone_surrogate_raises_like_reference(codec, reference, text):
    for fn in (codec, reference):
        with pytest.raises(UnicodeEncodeError):
            fn(text)


# ---------------------------------------------------------------------------
# origins and urls
# ---------------------------------------------------------------------------


def test_origin_default_port_elision():
    assert str(Origin("https", "bank.example", 443)) == "https://bank.example"
    assert str(Origin("http", "bank.example", 80)) == "http://bank.example"
    assert str(Origin("https", "bank.example", 8443)) == "https://bank.example:8443"


def test_origin_host_case_folded():
    assert Origin("https", "Bank.Example", 443) == Origin("https", "bank.example", 443)


def test_origin_parse_bare_host_defaults_https():
    assert Origin.parse("bank.example") == Origin("https", "bank.example", 443)


@pytest.mark.parametrize(
    "scheme,host,port",
    [
        ("ftp", "x.example", 21),
        ("https", "", 443),
        ("https", "ho st", 443),
        ("https", " x.example", 443),
        ("https", "x.example\u2003", 443),
        ("https", "x.example", 0),
        ("https", "x.example", 70000),
    ],
)
def test_origin_rejects_invalid(scheme, host, port):
    with pytest.raises(InvalidUrl):
        Origin(scheme, host, port)


def test_url_parse_full():
    url = Url.parse("https://bank.example:8443/login?next=%2Fhome&x=1")
    assert url.scheme == "https"
    assert url.host == "bank.example"
    assert url.port == 8443
    assert url.path == "/login"
    assert url.query == (("next", "/home"), ("x", "1"))
    assert str(url) == "https://bank.example:8443/login?next=%2Fhome&x=1"


def test_url_parse_defaults():
    url = Url.parse("http://site.example")
    assert (url.port, url.path, url.query) == (80, "/", ())
    assert str(url) == "http://site.example/"


@pytest.mark.parametrize(
    "text",
    ["noscheme/path", "gopher://x.example/", "https://x.example:den/"],
)
def test_url_parse_rejects(text):
    with pytest.raises(InvalidUrl):
        Url.parse(text)


@pytest.mark.parametrize(
    "text, path, query",
    [
        ("https://a.example?x=1", "/", (("x", "1"),)),
        ("https://a.example#f", "/", ()),
        ("https://a.example:8443?x=1#f", "/", (("x", "1"),)),
        ("https://a.example/p?x=1#f?y=2", "/p", (("x", "1"),)),
        ("https://a.example/p#f/q", "/p", ()),
    ],
)
def test_url_parse_ends_the_host_at_a_query_or_fragment(text, path, query):
    url = Url.parse(text)
    assert (url.host, url.path, url.query) == ("a.example", path, query)
    assert Origin.parse(text).host == "a.example"


@pytest.mark.parametrize("text", ["https://user@a.example/x", "https://u:pw@a.example", "a@b.example"])
def test_url_parse_rejects_userinfo(text):
    with pytest.raises(InvalidUrl, match="userinfo in"):
        Origin.parse(text)


def test_url_parse_keeps_an_at_sign_after_the_host():
    assert Url.parse("https://a.example/u@x?to=b@c").path == "/u@x"


@pytest.mark.parametrize("port", ["4_43", " 443", "+443", "\u0664\u0664\u0663"])
def test_url_parse_rejects_a_port_that_int_reads_but_is_not_ascii_digits(port):
    # int() reads each of these as 443
    assert int(port) == 443
    with pytest.raises(InvalidUrl, match="bad port in"):
        Url.parse(f"https://a.example:{port}/login")
    with pytest.raises(InvalidUrl, match="bad port in"):
        Origin.parse(f"https://a.example:{port}")


def test_url_requires_absolute_path():
    with pytest.raises(InvalidUrl):
        Url("https", "x.example", 443, path="relative")


def _origin_matches(url: Url) -> bool:
    return url.origin == Origin(url.scheme, url.host, url.port) and url.origin.host == url.host


def test_url_origin_follows_every_construction():
    url = Url("https", "Bank.Example", 8443, "/login")
    assert _origin_matches(url)
    assert url.origin == Origin("https", "bank.example", 8443)
    parsed = Url.parse("http://Site.Example:81/a?b=c")
    assert _origin_matches(parsed)
    assert parsed.origin == Origin("http", "site.example", 81)
    moved = url._replace(scheme="http", host="Other.Example", port=80)
    assert _origin_matches(moved)
    assert moved.origin == Origin("http", "other.example", 80)
    queried = parsed.with_query([("x", "1")])
    assert _origin_matches(queried)
    assert queried.origin == parsed.origin


def test_url_origin_is_derived_and_kept_out_of_repr():
    url = Url("https", "bank.example", 443, "/login", (("a", "b"),))
    assert "origin" not in repr(url)
    twin = Url.parse("https://bank.example/login?a=b")
    assert url == twin and hash(url) == hash(twin)
    # no origin can be set, and a copy derives its own from scheme/host/port
    with pytest.raises(AttributeError):
        url.origin = Origin("http", "elsewhere.example", 8080)
    assert url._replace(origin=Origin("http", "elsewhere.example", 8080)) == url


@given(st.lists(st.tuples(form_text, form_text), max_size=5))
def test_url_query_round_trip(entries):
    url = Url("https", "site.example", 443, "/q").with_query(entries)
    assert Url.parse(str(url)) == url


# ---------------------------------------------------------------------------
# bodies
# ---------------------------------------------------------------------------


def test_request_body_urlencoded_raw_matches():
    body = RequestBody.urlencoded((("user", "alice"), ("pw", "a b")))
    assert body.raw == b"user=alice&pw=a+b"


def test_request_body_urlencoded_normalises_entries_as_construction_does():
    # non-string entries become strings before they are encoded, so the
    # factory and the checked constructor agree on every input
    entries = (("a", 1), (2, None))
    body = RequestBody.urlencoded(entries)
    assert body == RequestBody((("a", "1"), ("2", "None")), b"a=1&2=None")
    assert body == RequestBody(entries, b"a=1&2=None")


@pytest.mark.parametrize(
    "raw",
    [
        b"a=c",
        b"a=%62",  # decodes to the same entries, but is not the bytes they encode to
        b"a=b&",
        b"a=b\r\n",
        b"",
    ],
)
def test_request_body_rejects_mismatched_raw(raw):
    with pytest.raises(MalformedBody, match="raw bytes do not match"):
        RequestBody((("a", "b"),), raw)


def test_request_body_with_entries_reencodes():
    body = RequestBody.urlencoded((("pw", "old"),))
    swapped = body.with_entries((("pw", "new"),))
    assert swapped.raw == b"pw=new"
    assert body.raw == b"pw=old"  # original untouched


@given(entry_lists)
def test_request_body_raw_always_consistent(entries):
    body = RequestBody.urlencoded(entries)
    assert decode_urlencoded(body.raw) == tuple(entries)


@given(entry_lists, entry_lists)
def test_request_body_factories_equal_a_checked_body(entries, swapped):
    """The factories encode once and skip the re-encoding check; what they
    build must equal the encoded entries and the directly built, checked body."""
    body = RequestBody.urlencoded(entries)
    assert body.raw == urlencode_entries(entries).encode("ascii")
    assert body == RequestBody(entries, body.raw)
    edited = body.with_entries(swapped)
    assert edited.raw == urlencode_entries(swapped).encode("ascii")
    assert edited == RequestBody(swapped, edited.raw)
    assert type(edited.entries) is tuple and type(body.entries) is tuple
    assert RequestBody.encoded(edited.entries) == edited  # its entries are string pairs


# names and values from the characters the codec escapes or splits on
tricky_text = st.text(alphabet=st.sampled_from("=&%+~ \r\n\"a\u00e9\u20ac\U0001f600"), max_size=6)
tricky_entries = st.lists(st.tuples(tricky_text, tricky_text), max_size=6)


@given(tricky_entries, tricky_entries)
def test_request_body_raw_decodes_to_its_entries(entries, swapped):
    """Readers take `entries` instead of decoding `raw`; that is exact only
    because decoding `raw` gives `entries` back, for every way a body is built."""
    body = RequestBody.urlencoded(entries)
    edited = body.with_entries(swapped)
    assert decode_urlencoded(body.raw) == body.entries
    assert decode_urlencoded(edited.raw) == edited.entries


def test_request_body_digest_is_kept_and_not_in_repr_eq_or_hash():
    body = RequestBody.urlencoded((("pw", "a b"),))
    twin = RequestBody((("pw", "a b"),), b"pw=a+b")
    assert body.digest() == sha256_hex(b"pw=a+b")
    assert body.digest() is body.digest()  # hashed once, then kept
    assert "digest" not in repr(body)
    assert body == twin and hash(body) == hash(twin)  # twin has hashed nothing
    assert body.with_entries((("pw", "x"),)).digest() == sha256_hex(b"pw=x")


def test_url_to_string_is_kept_and_not_in_repr_eq_or_hash():
    url = Url.parse("https://Bank.Example:8443/login?a=b+c")
    twin = Url("https", "bank.example", 8443, "/login", (("a", "b c"),))
    assert url.to_string() == "https://bank.example:8443/login?a=b+c"
    assert url.to_string() is url.to_string()
    assert "_text" not in repr(url)
    assert url == twin and hash(url) == hash(twin)
    assert str(url.with_query([("x", "1")])) == "https://bank.example:8443/login?x=1"


# ---------------------------------------------------------------------------
# request/response records
# ---------------------------------------------------------------------------


def _url() -> Url:
    return Url.parse("https://site.example/login")


def test_web_request_get_with_body_forbidden():
    with pytest.raises(ValueError):
        WebRequestRecord(1, "GET", _url(), body=RequestBody.urlencoded((("a", "b"),)))


@pytest.mark.parametrize("body", [b"a=b", (("a", "b"),), "a=b"])
def test_web_request_body_must_be_a_request_body(body):
    with pytest.raises(TypeError, match="a request body is a RequestBody"):
        WebRequestRecord(1, "POST", _url(), body=body)
    with pytest.raises(TypeError, match="a request body is a RequestBody"):
        WebRequestRecord(1, "POST", _url()).with_body(body)


def test_web_request_with_body_refuses_no_body_and_a_get_as_construction_does():
    body = RequestBody.urlencoded((("a", "b"),))
    with pytest.raises(TypeError, match="a request body is a RequestBody"):
        WebRequestRecord(1, "POST", _url(), body=body).with_body(None)
    with pytest.raises(ValueError, match="GET requests carry entries in the query"):
        WebRequestRecord(1, "GET", _url()).with_body(body)


def test_web_request_with_body_is_the_checked_copy():
    page = object()
    request = WebRequestRecord(
        3, "POST", _url(), (("Host", "site.example"),), RequestBody.urlencoded((("a", "b"),)),
        ChannelSecurity.BAD_TLS, page, 2,
    )
    body = RequestBody.urlencoded((("a", "c"),))
    swapped = request.with_body(body)
    assert swapped == request._replace(body=body)
    assert type(swapped) is WebRequestRecord and swapped.body is body
    assert swapped.source_page is page and request.body.raw == b"a=b"


def test_web_request_rejects_other_methods():
    with pytest.raises(ValueError):
        WebRequestRecord(1, "PUT", _url())


def test_web_request_header_lookup_case_insensitive():
    record = WebRequestRecord(1, "POST", _url(), headers=(("Content-Type", URLENCODED),))
    assert record.header("content-type") == URLENCODED
    assert record.header("CONTENT-TYPE") == URLENCODED
    assert record.header("missing") is None


def test_web_request_body_bytes():
    body = RequestBody.urlencoded((("a", "b"),))
    assert WebRequestRecord(1, "POST", _url(), body=body).body_bytes() == b"a=b"
    assert WebRequestRecord(2, "GET", _url()).body_bytes() is None


def test_web_response_without_headers_case_insensitive():
    resp = WebResponseRecord(
        1, 200, headers=(("X-Keep", "1"), ("WebAuthn_Request", "x"), ("url_RESP", "y"))
    )
    stripped = resp.without_headers(["webauthn_request", "URL_resp"])
    assert stripped.headers == (("X-Keep", "1"),)
    assert stripped.request_id == 1 and stripped.status == 200


def test_channel_security_values():
    assert {c.value for c in ChannelSecurity} == {"plain_http", "good_tls", "bad_tls"}


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


@given(st.binary(max_size=64))
def test_sha256_hex_matches_hashlib(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_hex_str_is_utf8():
    assert sha256_hex("café") == hashlib.sha256("café".encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the leak oracle
# ---------------------------------------------------------------------------

# texts and secrets that reach every branch: NULs (the join's separator), the
# characters `_quote_form` escapes, '+' and '%' that its escapes are made of
oracle_text = st.text(alphabet=st.sampled_from("ab\0 %+~\u00e9"), max_size=6)
oracle_texts = st.lists(oracle_text, max_size=4)


def per_text_rule(texts, secret):
    return any(secret in t or _quote_form(secret) in t for t in texts)


@given(oracle_texts, oracle_text)
@example([], "")
@example([""], "")
@example(["a", "b"], "a\0b")
@example(["a\0b"], "a\0b")
def test_holds_secret_gives_the_per_text_answer(texts, secret):
    assert holds_secret(texts, secret) == per_text_rule(texts, secret)


@given(oracle_texts, st.lists(oracle_text, max_size=4))
def test_find_leaks_gives_the_per_text_answer_for_each_nonempty_secret(texts, secrets):
    digests = sorted({sha256_hex(s) for s in secrets if s and per_text_rule(texts, s)})
    assert find_leaks(secrets, texts) == (tuple(digests), bool(digests))
