#pragma once
// Static experiment descriptions — the C++ twin of the paper's YML-based
// experimentation framework (Appendix A.3: "Each experiment is fully
// described in form of a static experiment description file. ... This static
// experiment description ensures repeatability.")
//
// Format: one `key = value` per line, `#` comments. See
// examples/experiments/*.conf for the configurations used in the paper.
// Each key is one row of a table that declares its parse, bounds and render
// together, so a rendered description parses back to the same config.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "testbed/experiment.hpp"

namespace mgap::testbed {

/// Applies one `key = value` assignment to `cfg`. Throws std::runtime_error on
/// a malformed value or an unknown key (typo guard). This is the single point
/// through which both whole-file parsing and campaign grid expansion mutate a
/// configuration, so sweep axes accept exactly the file syntax.
void apply_experiment_kv(ExperimentConfig& cfg, std::string_view key,
                         std::string_view value);

/// Parses a full experiment description; throws std::runtime_error with the
/// offending line on malformed input. Unknown keys are rejected (typo guard).
/// Keys apply in alphabetical order, whatever their order in the file.
[[nodiscard]] ExperimentConfig parse_experiment_config(std::string_view text);

/// Loads and parses a description file.
[[nodiscard]] ExperimentConfig load_experiment_config(const std::string& path);

/// Renders the effective configuration back into the file format (the
/// framework's artifact (i): the static experiment description).
/// parse_experiment_config(render_experiment_config(c)) renders identically.
[[nodiscard]] std::string render_experiment_config(const ExperimentConfig& config);

/// The key table's names in render order. A name ending in '.' is a prefix
/// family (`fault.` accepts `fault.0`, `fault.crash`, ...).
[[nodiscard]] std::vector<std::string_view> experiment_config_keys();

/// Strips leading and trailing whitespace, as the line reader does.
[[nodiscard]] std::string_view trim(std::string_view s);

/// The line reader shared by experiment and campaign files: skips blank lines
/// and `#` comments, trims, and calls `on_kv(line_no, key, value)` for each
/// `key = value` line in file order. Throws std::runtime_error
/// "<what> line N: expected key = value" on any other line.
void read_config_lines(
    std::string_view text, std::string_view what,
    const std::function<void(std::size_t, std::string_view, std::string_view)>& on_kv);

}  // namespace mgap::testbed
