"""The argparse parser of the command table, loaded by ``cli.build_parser``
for the calls ``cli.fast_parse`` declines (help, a usage error, a spelling
only argparse reads), so that no valid call compiles it.  The table comes
as an argument: importing ``cli`` here would compile it a second time
beside the ``__main__`` copy that ``python -m cobweb.cli`` runs.
"""

from __future__ import annotations

import argparse


def _build_parser(commands: dict) -> argparse.ArgumentParser:
    """``cli.build_parser``: one parser per row of ``commands``, in table order."""
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact cobweb-poset computations with verification oracles.",
    )
    subparsers = {None: parser.add_subparsers(dest="command", required=True)}
    for (group, name), (help_text, handler, options) in commands.items():
        sub = subparsers[group if name else None].add_parser(name or group, help=help_text)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
        if handler is not None:
            sub.set_defaults(handler=handler, parser=sub)
        if name is None:
            subparsers[group] = sub.add_subparsers(dest="subcommand", required=handler is None)
    return parser
