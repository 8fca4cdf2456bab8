"""Straggler mitigation under a constrained cluster (paper §5, Algorithm 3).

Sweeps the machine count and prints the job-completion-time win from
NURD-driven relaunches at each cluster size next to the unlimited-machines
value (paper Figs. 6–9). Both are the closed-loop simulator's
``kill_restart`` policy: ``machines`` fixes the cluster size per job, and a
spare per task makes machines unlimited (Algorithm 2).

A flagged task is killed at its flag time and its relaunch waits for the
next free machine: a spare, or the machine of a task that finished
unflagged. NURD flags only once some tasks have finished, so on these jobs
a machine is already free for every relaunch and the sweep sits at the
unlimited value; flaggers that fire earlier and more often (Grabit and
Wrangler in ``benchmarks/test_fig6_9_jct_limited.py``) do bind.

Run:  PYTHONPATH=src python examples/scheduling_mitigation.py
"""

from repro import GoogleTraceGenerator, NurdPredictor, ReplaySimulator
from repro.sim import ClosedLoopSimulator, MitigationConfig

MACHINES = [50, 100, 200, 400, 800]


def kill_restart(**knobs) -> ClosedLoopSimulator:
    return ClosedLoopSimulator(
        MitigationConfig(policy="kill_restart", random_state=1, **knobs)
    )


def main() -> None:
    gen = GoogleTraceGenerator(
        n_jobs=4, task_range=(250, 400), random_state=11
    )
    trace = gen.generate()
    sim = ReplaySimulator(n_checkpoints=10, random_state=0)

    print(f"replaying {len(trace)} jobs with NURD...")
    replays = [
        sim.run(job, NurdPredictor(random_state=0)) for job in trace
    ]

    print("\nmachines  avg JCT reduction")
    for m in MACHINES:
        red = kill_restart(machines=m).run_many(replays).mean_jct_reduction_pct
        bar = "#" * max(0, int(red))
        print(f"{m:8d}  {red:6.1f}%  {bar}")

    spares = max(job.n_tasks for job in trace)
    unlimited = kill_restart(spares=spares).run_many(replays)
    print(f"   inf    {unlimited.mean_jct_reduction_pct:6.1f}%  (Algorithm 2)")

    print("\nPer-job detail at 200 machines:")
    for out in kill_restart(machines=200).run_many(replays).outcomes:
        print(
            f"  {out.job_id}: {out.baseline_jct:9.1f} -> {out.mitigated_jct:9.1f} "
            f"({out.jct_reduction_pct:5.1f}%, {out.n_actions} relaunches, "
            f"{out.n_denied} denied)"
        )


if __name__ == "__main__":
    main()
