"""
One password login under the late-substitution defense, narrated.

Run: python3 demos/login_pipeline_walkthrough.py

The password manager autofills a nonce instead of the password. Every
extension listener that inspects the request sees that nonce. Only the
credential stage, after the last body-visible listener, swaps the real
password back in. The printout masks the real password the way the
transcripts do: by digest.
"""

import hashlib

from noncepipe.dom import Field, FieldKind, Form
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.http_model import Origin, Url, WebResponseRecord
from noncepipe.pipeline import DefenseMode, Stage, VaultEntry
from noncepipe.session import BrowserSession

ORIGIN = Origin("https", "bank.example", 443)
PASSWORD = "hunter2-demo-password"


def mask(text: str) -> str:
    digest = hashlib.sha256(PASSWORD.encode()).hexdigest()[:12]
    return text.replace(PASSWORD, f"[password sha256:{digest}]")


def server(request):
    return WebResponseRecord(request.request_id, 200, body=b"welcome"), "ok"


def main():
    session = BrowserSession(
        seed=42,
        defense_mode=DefenseMode.DESIGN5_API_LATE,
        vault=[VaultEntry(ORIGIN, "alice", PASSWORD)],
        server=server,
    )

    # a curious but passive extension, watching every stage it can
    ext = session.host.install(
        ExtensionManifest("watcher", frozenset({Permission.WEB_REQUEST}))
    )
    for stage in (Stage.ON_BEFORE_REQUEST, Stage.ON_SEND_HEADERS, Stage.ON_COMPLETED):
        session.host.register_listener("watcher", stage, lambda view: None)

    page = session.new_page(ORIGIN)
    page.add_form(
        Form(
            form_id="login",
            action=Url.parse("https://bank.example/login"),
            fields=[
                Field("username", FieldKind.TEXT),
                Field("password", FieldKind.PASSWORD),
            ],
        )
    )

    session.autofill(page, "login")
    filled = {f.name: f.value for f in page.form("login").fields}
    print("--- autofill ---")
    print(f"username field: {filled['username']!r}")
    print(f"password field: {filled['password']!r}  <- a nonce, not the password")

    result = session.submit(page, "login")
    print("\n--- what the page submitted ---")
    print(result.request.body.raw.decode())

    print("\n--- pipeline transcript ---")
    print(result.transcript.to_text(), end="")

    print("--- what actually hit the wire ---")
    print(mask(result.wire.body.raw.decode()))
    print(f"server verdict: {result.verdict}")

    print("\n--- everything the watcher extension observed ---")
    nonce = filled["password"]
    for line in ext.observations:
        print(" ", mask(line))
    leaked = any(PASSWORD in line for line in ext.observations)
    saw_nonce = any(nonce in line for line in ext.observations)
    print(f"\nwatcher saw the nonce: {saw_nonce}; saw the real password: {leaked}")


if __name__ == "__main__":
    main()
