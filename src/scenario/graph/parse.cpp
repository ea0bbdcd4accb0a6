#include "scenario/graph/parse.h"

#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/parse.h"

// NOTE: this TU does file I/O, so (per the status-not-abort rule) every
// failure path returns Status — no aborts, no matter the input bytes.

namespace xfa {
namespace {

Status invalid(std::size_t line, const std::string& message) {
  return {StatusCode::kInvalidArgument,
          "line " + std::to_string(line) + ": " + message};
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r'))
    text.remove_suffix(1);
  return text;
}

/// One top-level key: its home section plus a checked setter.
struct TopLevelKey {
  std::string_view section;
  std::string_view name;
  std::function<Status(ScenarioConfig&, const std::string&)> set;
};

Status parse_positive(const std::string& value, double& out) {
  Result<double> parsed = parse_param_double(value);
  if (!parsed.ok()) return parsed.status();
  if (*parsed <= 0)
    return {StatusCode::kInvalidArgument, "value must be > 0"};
  out = *parsed;
  return Status::Ok();
}

Status parse_fraction(const std::string& value, double& out) {
  Result<double> parsed = parse_param_double(value);
  if (!parsed.ok()) return parsed.status();
  if (*parsed < 0 || *parsed >= 1)
    return {StatusCode::kInvalidArgument, "value must be in [0, 1)"};
  out = *parsed;
  return Status::Ok();
}

Status parse_non_negative(const std::string& value, double& out) {
  Result<double> parsed = parse_param_double(value);
  if (!parsed.ok()) return parsed.status();
  if (*parsed < 0)
    return {StatusCode::kInvalidArgument, "value must be >= 0"};
  out = *parsed;
  return Status::Ok();
}

const std::vector<TopLevelKey>& top_level_keys() {
  static const std::vector<TopLevelKey> keys = {
      {"sim", "nodes",
       [](ScenarioConfig& c, const std::string& v) {
         Result<std::uint64_t> parsed = parse_u64(v);
         if (!parsed.ok()) return parsed.status();
         if (*parsed < 2 || *parsed > 100000)
           return Status{StatusCode::kInvalidArgument,
                         "nodes must be in [2, 100000]"};
         c.node_count = static_cast<std::size_t>(*parsed);
         return Status::Ok();
       }},
      {"sim", "duration",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.duration);
       }},
      {"sim", "sample-interval",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.sample_interval);
       }},
      {"sim", "seed",
       [](ScenarioConfig& c, const std::string& v) {
         Result<std::uint64_t> parsed = parse_u64(v);
         if (!parsed.ok()) return parsed.status();
         c.seed = *parsed;
         return Status::Ok();
       }},
      {"sim", "traffic-seed",
       [](ScenarioConfig& c, const std::string& v) {
         Result<std::uint64_t> parsed = parse_u64(v);
         if (!parsed.ok()) return parsed.status();
         c.traffic_seed = *parsed;
         return Status::Ok();
       }},
      {"sim", "mobility-seed",
       [](ScenarioConfig& c, const std::string& v) {
         Result<std::uint64_t> parsed = parse_u64(v);
         if (!parsed.ok()) return parsed.status();
         c.mobility_seed = *parsed;
         return Status::Ok();
       }},
      {"mobility", "width",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.mobility.field_width);
       }},
      {"mobility", "height",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.mobility.field_height);
       }},
      {"mobility", "max-speed",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.mobility.max_speed);
       }},
      {"mobility", "min-speed",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.mobility.min_speed);
       }},
      {"mobility", "pause",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_non_negative(v, c.mobility.pause_time);
       }},
      {"channel", "range",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.channel.range_m);
       }},
      {"channel", "bandwidth",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.channel.bandwidth_bps);
       }},
      {"channel", "loss-rate",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_fraction(v, c.channel.loss_rate);
       }},
      {"channel", "jitter",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_non_negative(v, c.channel.max_jitter_s);
       }},
      {"channel", "taps",
       [](ScenarioConfig& c, const std::string& v) {
         Result<bool> parsed = parse_param_bool(v);
         if (!parsed.ok()) return parsed.status();
         c.channel.promiscuous_taps = *parsed;
         return Status::Ok();
       }},
      {"traffic", "connections",
       [](ScenarioConfig& c, const std::string& v) {
         Result<std::uint64_t> parsed = parse_u64(v);
         if (!parsed.ok()) return parsed.status();
         c.traffic.max_connections = static_cast<std::size_t>(*parsed);
         return Status::Ok();
       }},
      {"traffic", "rate-pps",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_positive(v, c.traffic.rate_pps);
       }},
      {"traffic", "packet-bytes",
       [](ScenarioConfig& c, const std::string& v) {
         Result<std::uint64_t> parsed = parse_u64(v);
         if (!parsed.ok()) return parsed.status();
         if (*parsed == 0 || *parsed > (1u << 20))
           return Status{StatusCode::kInvalidArgument,
                         "packet-bytes must be in [1, 1048576]"};
         c.traffic.packet_bytes = static_cast<std::uint32_t>(*parsed);
         return Status::Ok();
       }},
      {"traffic", "start-window",
       [](ScenarioConfig& c, const std::string& v) {
         return parse_non_negative(v, c.traffic.start_window);
       }},
  };
  return keys;
}

std::string section_keys(std::string_view section) {
  std::string names;
  for (const TopLevelKey& key : top_level_keys()) {
    if (key.section != section) continue;
    if (!names.empty()) names += ", ";
    names += std::string(key.name);
  }
  return names;
}

bool is_top_level_section(std::string_view name) {
  return name == "sim" || name == "mobility" || name == "channel" ||
         name == "traffic";
}

}  // namespace

Result<ScenarioSpec> parse_scenario_text(const std::string& text) {
  ScenarioSpec spec;
  std::string section;       // current top-level section, if any
  ElementSpec* element = nullptr;  // current element section, if any

  std::istringstream lines(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(lines, raw)) {
    ++line_no;
    std::string_view line{raw};
    // Comments run to end of line; values never contain '#'.
    if (const std::size_t hash = line.find('#'); hash != std::string::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']')
        return invalid(line_no, "unterminated section header");
      std::string_view inner = trim(line.substr(1, line.size() - 2));
      if (inner.empty()) return invalid(line_no, "empty section header");
      // Split on whitespace: "sim", or "element TYPE [NAME]".
      std::vector<std::string> words;
      std::size_t pos = 0;
      while (pos < inner.size()) {
        while (pos < inner.size() &&
               (inner[pos] == ' ' || inner[pos] == '\t'))
          ++pos;
        std::size_t end = pos;
        while (end < inner.size() && inner[end] != ' ' && inner[end] != '\t')
          ++end;
        if (end > pos) words.emplace_back(inner.substr(pos, end - pos));
        pos = end;
      }
      if (words.front() == "element") {
        if (words.size() < 2 || words.size() > 3) {
          return invalid(line_no,
                         "element header is [element TYPE] or "
                         "[element TYPE NAME]");
        }
        spec.elements.emplace_back();
        element = &spec.elements.back();
        element->type = words[1];
        element->name = words.size() == 3 ? words[2] : words[1];
        section.clear();
        continue;
      }
      if (words.size() != 1 || !is_top_level_section(words.front())) {
        return invalid(line_no, "unknown section [" + words.front() +
                                    "] (expected sim, mobility, channel, "
                                    "traffic, or element ...)");
      }
      section = words.front();
      element = nullptr;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      return invalid(line_no, "expected 'key = value' or a [section] header");
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    if (key.empty()) return invalid(line_no, "empty key");
    if (value.empty()) return invalid(line_no, "empty value for '" + key + "'");

    if (element != nullptr) {
      element->params.emplace_back(key, value);
      continue;
    }
    if (section.empty()) {
      return invalid(line_no,
                     "'" + key + "' appears before any [section] header");
    }
    const TopLevelKey* match = nullptr;
    for (const TopLevelKey& candidate : top_level_keys())
      if (candidate.section == section && candidate.name == key)
        match = &candidate;
    if (match == nullptr) {
      return invalid(line_no, "unknown key '" + key + "' in [" + section +
                                  "] (accepted: " + section_keys(section) +
                                  ")");
    }
    if (Status status = match->set(spec.base, value); !status.ok()) {
      return invalid(line_no, "'" + key + "': " + status.message());
    }
  }
  return spec;
}

Result<ScenarioSpec> load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status{StatusCode::kIoError,
                  "cannot open scenario file '" + path + "'"};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status{StatusCode::kIoError,
                  "error reading scenario file '" + path + "'"};
  }
  Result<ScenarioSpec> parsed = parse_scenario_text(buffer.str());
  if (!parsed.ok()) {
    return Status{parsed.status().code(),
                  path + ": " + parsed.status().message()};
  }
  return parsed;
}

Result<ScenarioConfig> load_scenario_config(const std::string& path) {
  Result<ScenarioSpec> spec = load_scenario_file(path);
  if (!spec.ok()) return spec.status();
  Result<ScenarioConfig> config = lower_spec(*spec);
  if (!config.ok()) {
    return Status{config.status().code(),
                  path + ": " + config.status().message()};
  }
  return config;
}

}  // namespace xfa
