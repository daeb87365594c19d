#include "campaign/spec.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mgap::campaign {

namespace {

using testbed::trim;

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (true) {
    const auto next = s.find(sep, pos);
    out.push_back(trim(s.substr(pos, next - pos)));
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  return out;
}

std::uint64_t parse_u64(std::string_view s, const char* what) {
  std::uint64_t v{};
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) {
    throw std::runtime_error{std::string{"campaign: bad "} + what + " '" +
                             std::string(s) + "'"};
  }
  return v;
}

}  // namespace

std::size_t CampaignSpec::grid_size() const {
  std::size_t n = 1;
  for (const Axis& axis : axes) n *= axis.values.size();
  return n;
}

std::size_t CampaignSpec::cell_count() const {
  return grid_size() * effective_seeds().size();
}

std::vector<std::uint64_t> CampaignSpec::effective_seeds() const {
  return seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
}

std::string CellConfig::label() const {
  std::string out;
  for (const auto& [key, value] : assignment) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::vector<CellConfig> expand_grid(const CampaignSpec& spec) {
  std::vector<CellConfig> out;
  const std::size_t n = spec.grid_size();
  out.reserve(n);
  for (std::size_t index = 0; index < n; ++index) {
    CellConfig cell;
    cell.config_index = index;
    cell.config = spec.base;
    // Row-major decode: the first axis varies slowest.
    std::size_t rest = index;
    std::size_t stride = n;
    for (const CampaignSpec::Axis& axis : spec.axes) {
      stride /= axis.values.size();
      const std::size_t pick = rest / stride;
      rest %= stride;
      const std::string& value = axis.values[pick];
      testbed::apply_experiment_kv(cell.config, axis.key, value);
      cell.assignment.emplace_back(axis.key, value);
    }
    if (spec.finalize) spec.finalize(cell.config);
    out.push_back(std::move(cell));
  }
  return out;
}

std::vector<std::uint64_t> parse_seed_list(std::string_view text) {
  text = trim(text);
  if (text.empty()) throw std::runtime_error{"campaign: empty seed list"};
  std::vector<std::uint64_t> seeds;
  const auto dots = text.find("..");
  if (dots != std::string_view::npos && text.find(',') == std::string_view::npos) {
    const std::uint64_t lo = parse_u64(trim(text.substr(0, dots)), "seed");
    const std::uint64_t hi = parse_u64(trim(text.substr(dots + 2)), "seed");
    if (hi < lo) throw std::runtime_error{"campaign: seed range hi < lo"};
    if (hi - lo >= 100'000) throw std::runtime_error{"campaign: seed range too large"};
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
    return seeds;
  }
  for (const std::string_view part : split(text, ',')) {
    seeds.push_back(parse_u64(part, "seed"));
  }
  return seeds;
}

CampaignSpec parse_campaign_spec(std::string_view text) {
  CampaignSpec spec;
  testbed::read_config_lines(text, "campaign", [&spec](std::size_t line_no,
                                                       std::string_view key,
                                                       std::string_view value) {
    if (key == "campaign") {
      spec.name = value;
      return;
    }
    if (key == "seeds") {
      spec.seeds = parse_seed_list(value);
      return;
    }
    // A comma makes the key a sweep axis; a single value configures the base.
    // (No ExperimentConfig value contains a comma: ranges use ':', names are
    // bare words — so the comma is unambiguous sweep syntax.)
    if (value.find(',') == std::string_view::npos) {
      testbed::apply_experiment_kv(spec.base, key, value);
      return;
    }
    CampaignSpec::Axis axis;
    axis.key = key;
    for (const std::string_view part : split(value, ',')) {
      if (part.empty()) {
        throw std::runtime_error{"campaign line " + std::to_string(line_no) +
                                 ": empty sweep value for '" + axis.key + "'"};
      }
      axis.values.emplace_back(part);
    }
    // Validate each value now, against a scratch config, so a typo fails at
    // parse time rather than mid-campaign.
    for (const std::string& v : axis.values) {
      testbed::ExperimentConfig scratch = spec.base;
      testbed::apply_experiment_kv(scratch, key, v);
    }
    if (std::ranges::any_of(spec.axes, [&](const auto& a) { return a.key == key; })) {
      throw std::runtime_error{"campaign: duplicate sweep axis '" + axis.key + "'"};
    }
    spec.axes.push_back(std::move(axis));
  });
  return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"campaign: cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_campaign_spec(buf.str());
}

}  // namespace mgap::campaign
