"""
Dual-run compatibility survey over the fixture login corpus.

Run: python3 demos/compat_survey_demo.py

Every site logs in twice, once without the defense and once with it, and
the two wire bodies are compared. Sites that post the password verbatim
must produce byte-identical traffic (the substitution is invisible).
Sites that hash or otherwise transform the password before submitting
destroy the nonce, so substitution can't fire; those break, and the
survey counts them.
"""

from noncepipe.pipeline import DefenseMode
from noncepipe.sites import build_fixture_corpus, compat_evaluate


def main():
    report = compat_evaluate(build_fixture_corpus(), seed=42,
                             defense=DefenseMode.DESIGN5_API_LATE)
    print(report.render_text())

    print("close-ups, one broken site per flavor:")
    for category in ("hashes_password", "transforms_password"):
        record = next(r for r in report.records if r.category == category)
        print(f"  {record.site_id} ({category})")
        print(f"    classification:    {record.classification}")
        print(f"    baseline verdict:  {record.verdict_baseline}")
        print(f"    defended verdict:  {record.verdict_defended}")
        print(f"    password on wire:  {record.password_on_wire}")
    print()
    print("hash sites submit the real password next to sha256(nonce), which")
    print("the server rejects as an integrity failure; transform sites submit")
    print("base64(nonce), so they fail login outright and the real password")
    print("never reaches their wire.")


if __name__ == "__main__":
    main()
