"""Time one cold set-up in a fresh process and print its times as JSON.

Set-up is what ``phasesde.cli.run_config`` does before its first
trajectory step: import the package, load the config file, resolve it,
build the physics and ensemble objects and validate every method entry.
Prints ``steal.elapsed`` of it: wall and stolen seconds.

Usage: python3 perfbench/setup_probe.py <src dir> <config.json>
"""
import json
import sys

from steal import elapsed, start

begin = start()
sys.path.insert(0, sys.argv[1])

from phasesde import cli  # noqa: E402
from phasesde.core import MethodSpec, validate_config  # noqa: E402

resolved = cli.resolve_config(cli.load_config_file(sys.argv[2]))
params = cli._params_from_json(resolved["params"])
for entry in resolved["method"]:
    config = cli._ensemble_from_json(resolved["ensemble"],
                                     entry["n_trajectories"])
    validate_config(config, MethodSpec.of(entry["name"]), params)
print(json.dumps(elapsed(begin)))
