#!/usr/bin/env python3
"""Score the three algorithms on what actually matters downstream:
sensing coverage kept, and joules spent keeping it.

The paper compares motion and messaging overhead; this example converts
both into one energy axis (robot locomotion + radio energy) and adds the
end-to-end service metric the system exists to protect — the integrated
sensing-coverage deficit.  It runs the coverage/energy ablation study
(``python -m repro ablate coverage``) at seed 12 and prints its table
and claim checklist.

Run:
    python examples/coverage_and_energy.py
"""

from repro.experiments import coverage_energy_ablation


def main() -> None:
    print(coverage_energy_ablation(seeds=(12,)).table())
    print()
    print("Reading the table: all three algorithms keep coverage near its")
    print("deployed level — the differences are in the energy bill.  The")
    print("distributed algorithms trade radio energy (flooded location")
    print("updates) against the centralized manager's long report routes;")
    print("motion energy dwarfs radio energy for every algorithm, which is")
    print("why the paper optimises travel distance first.")


if __name__ == "__main__":
    main()
