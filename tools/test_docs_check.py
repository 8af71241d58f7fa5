#!/usr/bin/env python3
"""Unit tests for the documentation consistency gate (tools/docs_check.py).

Run directly (``python3 tools/test_docs_check.py``) or through ctest
(registered as ``docs_check_selftest``).  The critical cases — the gate
must demonstrably FAIL on a broken link and on an undocumented source
file, and on a map row naming a deleted one — are
``test_fails_on_broken_link``, ``test_fails_on_undocumented_source`` and
``test_fails_on_map_row_naming_a_deleted_file``.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import docs_check  # noqa: E402


class DocsCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.root = self.dir.name
        os.makedirs(os.path.join(self.root, "docs"))
        os.makedirs(os.path.join(self.root, "src", "sim"))

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        return path

    def run_main(self):
        return docs_check.main(["--repo-root", self.root])

    # -- link check --------------------------------------------------------

    def test_clean_tree_passes(self):
        self.write("src/sim/context.hpp", "")
        self.write("README.md", "[docs](docs/architecture.md)")
        self.write("docs/architecture.md", "| context.hpp |")
        self.assertEqual(self.run_main(), 0)

    def test_fails_on_broken_link(self):
        self.write("README.md", "[missing](docs/nope.md)")
        self.write("docs/architecture.md", "")
        self.assertEqual(self.run_main(), 1)

    def test_broken_link_in_docs_dir_fails(self):
        self.write("docs/architecture.md", "[gone](../missing_file.cpp)")
        self.assertEqual(self.run_main(), 1)

    def test_external_and_anchor_links_are_skipped(self):
        self.write("docs/architecture.md",
                   "[x](https://example.org/p.md) [y](#section) "
                   "[z](mailto:a@b.c)")
        self.assertEqual(self.run_main(), 0)

    def test_link_fragment_is_ignored_when_resolving(self):
        self.write("docs/engine.md", "body")
        self.write("docs/architecture.md", "[e](engine.md#anchor)")
        self.assertEqual(self.run_main(), 0)

    def test_root_absolute_link_resolves_against_repo_root(self):
        self.write("docs/engine.md", "body")
        self.write("docs/architecture.md", "[e](/docs/engine.md)")
        self.assertEqual(self.run_main(), 0)

    def test_root_absolute_link_outside_repo_fails(self):
        # /usr exists on the runner's filesystem but not under the repo.
        self.write("docs/architecture.md", "[bad](/usr)")
        self.assertEqual(self.run_main(), 1)

    def test_directory_link_counts_as_existing(self):
        self.write("README.md", "[sources](src/)")
        self.write("docs/architecture.md", "")
        self.assertEqual(self.run_main(), 0)

    # -- drift guard -------------------------------------------------------

    def test_fails_on_undocumented_source(self):
        self.write("src/sim/context.hpp", "")
        self.write("src/sim/brand_new_thing.cpp", "")
        self.write("docs/architecture.md", "mentions context.hpp only")
        self.assertEqual(self.run_main(), 1)

    def test_full_name_mention_covers_a_file(self):
        self.write("src/sim/context.hpp", "")
        self.write("docs/architecture.md", "`sim/context.hpp` is the API")
        self.assertEqual(self.run_main(), 0)

    def test_brace_shorthand_covers_header_impl_pairs(self):
        self.write("src/sim/mailbox.hpp", "")
        self.write("src/sim/mailbox.cpp", "")
        self.write("docs/architecture.md", "| `mailbox.{hpp,cpp}` | rings |")
        self.assertEqual(self.run_main(), 0)

    def test_missing_architecture_doc_is_a_layout_error(self):
        self.write("src/sim/context.hpp", "")
        self.assertEqual(self.run_main(), 2)

    def test_suffix_of_another_files_name_is_not_a_mention(self):
        # src/traffic/source.hpp must not ride on cbr_source.hpp's (or
        # cbr_source.{hpp,cpp}'s) mention: matches are word-bounded.
        self.write("src/traffic/source.hpp", "")
        self.write("src/traffic/cbr_source.hpp", "")
        self.write("docs/architecture.md",
                   "| `cbr_source.{hpp,cpp}` | CBR source |")
        self.assertEqual(self.run_main(), 1)

    def test_standalone_header_mention_still_counts(self):
        self.write("src/traffic/source.hpp", "")
        self.write("docs/architecture.md", "| `source.hpp` | interface |")
        self.assertEqual(self.run_main(), 0)

    def test_non_source_files_are_not_required(self):
        self.write("src/sim/README.txt", "")
        self.write("docs/architecture.md", "")
        self.assertEqual(self.run_main(), 0)

    # -- reverse drift guard -----------------------------------------------

    MAP = ("## Directory map\n\n"
           "### `src/sim/` — the machine\n\n"
           "| files | what |\n|---|---|\n"
           "| `context.hpp` | the API |\n")

    def test_fails_on_map_row_naming_a_deleted_file(self):
        self.write("src/sim/context.hpp", "")
        self.write("docs/architecture.md",
                   self.MAP + "| `link.{hpp,cpp}` | deleted link |\n")
        self.assertEqual(self.run_main(), 1)

    def test_fails_on_single_file_row_naming_a_deleted_file(self):
        self.write("src/sim/context.hpp", "")
        self.write("docs/architecture.md",
                   self.MAP + "| `gone.hpp` | deleted header |\n")
        self.assertEqual(self.run_main(), 1)

    def test_pair_row_needs_both_files(self):
        self.write("src/sim/context.hpp", "")
        self.write("src/sim/link.hpp", "")
        self.write("docs/architecture.md",
                   self.MAP + "| `link.{hpp,cpp}` | half a pair |\n")
        self.assertEqual(self.run_main(), 1)

    def test_row_is_checked_against_its_own_subsystem(self):
        # link.hpp exists, but in src/topology/, not under the sim heading.
        self.write("src/sim/context.hpp", "")
        self.write("src/topology/link.hpp", "")
        self.write("docs/architecture.md",
                   self.MAP + "| `link.hpp` | wrong directory |\n")
        self.assertEqual(self.run_main(), 1)

    def test_existing_map_rows_pass(self):
        self.write("src/sim/context.hpp", "")
        self.write("src/sim/mailbox.hpp", "")
        self.write("src/sim/mailbox.cpp", "")
        self.write("docs/architecture.md",
                   self.MAP + "| `mailbox.{hpp,cpp}` | rings |\n")
        self.assertEqual(self.run_main(), 0)

    def test_rows_outside_a_src_heading_are_not_checked(self):
        self.write("src/sim/context.hpp", "")
        self.write("docs/architecture.md",
                   self.MAP + "\n## Tests\n\n| `tools/x.hpp` | other |\n"
                   "| `planned.hpp` | not in the map |\n")
        self.assertEqual(self.run_main(), 0)


if __name__ == "__main__":
    unittest.main()
