"""
The defense x adversary matrix, plus the reflection corner case.

Run: python3 demos/attack_matrix_demo.py

Three local adversaries (a passive page script, a DOM-controlling script,
a webRequest extension) against five defense configurations. Each cell
runs plans 0-24 of its adversary here; the CLI default and the acceptance
suite run 381 per cell, every plan of every adversary.

The reflection attack is the classic bypass attempt against substitution:
lure the manager into approving a swap on a request the site will echo
back into the page. Submit-URL pinning and the field-name check close it.
"""

from noncepipe.adversaries import evaluate_matrix, run_reflection_attack


def main():
    report = evaluate_matrix(seed=42, strategies_per_cell=25)
    print(report.render_text())

    print("reflection attack (site echoes the submitted form back)")
    for variant in ("retarget", "rename"):
        for pinning in (False, True):
            outcome = run_reflection_attack(42, pinning=pinning, variant=variant)
            state = "LEAKED" if outcome.secret_leaked else "blocked"
            print(
                f"  variant={variant:<9} pinning={'on ' if pinning else 'off'}"
                f" -> {state:<8} {', '.join(outcome.notes)}"
            )
    print()
    print("only the full echo with pinning disabled leaks; the rename variant")
    print("trips the field-name check, and pinning stops the moved submit URL.")


if __name__ == "__main__":
    main()
