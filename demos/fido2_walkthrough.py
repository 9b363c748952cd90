"""
The FIDO2 header channel, honest flows and hijack attempts.

Run: python3 demos/fido2_walkthrough.py

With the channel on, the server sends the real challenge in paired
response headers (webauthn_request + URL_resp). The browser strips them
before any extension listener runs, hands the page a dummy, signs the
real challenge on the authenticator, and injects the real signed response
into a request header on the exact finish URL. Page scripts and
webRequest listeners only ever touch dummies.

Payload values are secret material; this demo prints digests.
"""

import hashlib

from noncepipe.adversaries import run_fido2_scenario
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.fido2 import (
    AUTHENTICATION,
    HEADER_REQUEST,
    HEADER_RESPONSE,
    HEADER_URL_RESP,
    REGISTRATION,
    RelyingParty,
)
from noncepipe.http_model import Origin, WebResponseRecord
from noncepipe.pipeline import DefenseMode, Stage
from noncepipe.rng import substream
from noncepipe.session import BrowserSession

SSO = Origin("https", "sso.example", 443)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rp_server(rp):
    def serve(request):
        if request.url.path == "/webauthn/begin":
            params = dict(request.url.query)
            return rp.begin(params["kind"], params["username"], request.request_id), "begin"
        if request.url.path == "/webauthn/finish":
            result = rp.finish(request)
            label = "accepted" if result.accepted else f"rejected:{result.reason}"
            return WebResponseRecord(request.request_id, 200, body=label.encode()), label
        return WebResponseRecord(request.request_id, 404), "404"

    return serve


def main():
    rp = RelyingParty(SSO, substream(7, "rp"), defense_enabled=True)
    session = BrowserSession(7, DefenseMode.DESIGN5_API_LATE, [], rp_server(rp))
    watcher = session.host.install(
        ExtensionManifest("watcher", frozenset({Permission.WEB_REQUEST}))
    )
    session.host.register_listener("watcher", Stage.ON_HEADERS_RECEIVED, lambda v: None)
    page = session.new_page(SSO)

    print("--- registration ---")
    begin, result = session.fido2_ceremony(page, SSO, REGISTRATION, "alice")
    print(f"server verdict: {result.verdict}")
    print(f"consent prompts on the authenticator: {session.device.prompts}")

    print("\n--- authentication ---")
    _, result = session.fido2_ceremony(page, SSO, AUTHENTICATION, "alice")
    print(f"server verdict: {result.verdict}")

    header = result.wire.header(HEADER_RESPONSE)
    body_payload = dict(result.wire.body.entries)["webauthn"]
    print("\nfinish request, as the wire saw it:")
    print(f"  {HEADER_RESPONSE} header: sha256 {digest(header)} (the real response)")
    print(f"  body 'webauthn' field:    sha256 {digest(body_payload)} (a dummy)")
    print(f"  header and body differ:   {header != body_payload}")

    labels = [e.label for e in begin.transcript.events]
    print("\nbegin-response transcript (note fido2Strip before onHeadersReceived):")
    print(begin.transcript.to_text(), end="")
    print(f"strip ordered before listener views: "
          f"{labels.index('fido2Strip') < labels.index('onHeadersReceived')}")
    stripped = all(
        result.response.header(h) is None for h in (HEADER_REQUEST, HEADER_URL_RESP)
    )
    print(f"channel headers absent from the page-facing response: {stripped}")
    spotted = any(
        line.startswith((f"{HEADER_REQUEST}:", f"{HEADER_URL_RESP}:"))
        for line in watcher.observations
    )
    print(f"watcher extension saw a channel header: {spotted}")

    print("\n--- hijack attempts (request interception adversary) ---")
    for defended in (False, True):
        outcome = run_fido2_scenario("fido2_request", defense_on=defended, seed=7)
        label = "header channel on " if defended else "legacy (body) flow"
        state = "attacker logged in" if outcome.attacker_login else "attacker rejected"
        print(f"  {label}: {state}")


if __name__ == "__main__":
    main()
