#include "scenario/graph/element.h"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/parse.h"

namespace xfa {

const char* to_string(ElementRole role) {
  switch (role) {
    case ElementRole::Routing: return "routing";
    case ElementRole::Transport: return "transport";
    case ElementRole::Attack: return "attack";
    case ElementRole::Fault: return "fault";
    case ElementRole::Monitor: return "monitor";
  }
  return "?";
}

const std::string* ElementSpec::find(std::string_view key) const {
  const std::string* found = nullptr;
  for (const auto& [param, value] : params)
    if (param == key) found = &value;
  return found;
}

namespace {

Status malformed(std::string_view what, std::string_view text) {
  return {StatusCode::kInvalidArgument,
          std::string("malformed ") + std::string(what) + " value '" +
              std::string(text) + "'"};
}

}  // namespace

Result<double> parse_param_double(std::string_view text) {
  const std::string buf(text);
  if (buf.empty()) return malformed("number", text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size())
    return malformed("number", text);
  return value;
}

Result<bool> parse_param_bool(std::string_view text) {
  if (text == "true") return true;
  if (text == "false") return false;
  return malformed("bool (true|false)", text);
}

Result<NodeId> parse_param_node(std::string_view text) {
  if (text == "auto") return kInvalidNode;
  Result<std::uint64_t> value = parse_u64(text);
  if (!value.ok()) return malformed("node (id or 'auto')", text);
  if (*value > 100000) return malformed("node (id or 'auto')", text);
  return static_cast<NodeId>(*value);
}

Result<int> parse_param_mode(std::string_view text) {
  if (text == "constant") return 0;
  if (text == "random") return 1;
  if (text == "selective") return 2;
  return malformed("mode (constant|random|selective)", text);
}

Result<std::vector<std::pair<SimTime, SimTime>>> parse_param_sessions(
    std::string_view text) {
  std::vector<std::pair<SimTime, SimTime>> sessions;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view entry = text.substr(pos, comma - pos);
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos)
      return malformed("sessions (start:len,...)", text);
    Result<double> start = parse_param_double(entry.substr(0, colon));
    Result<double> len = parse_param_double(entry.substr(colon + 1));
    if (!start.ok() || !len.ok() || *start < 0 || *len <= 0)
      return malformed("sessions (start:len,...)", text);
    sessions.emplace_back(*start, *len);
    pos = comma + 1;
  }
  if (sessions.empty()) return malformed("sessions (start:len,...)", text);
  return sessions;
}

Status check_param_value(const ParamInfo& info, const std::string& value) {
  const auto range_check = [&info](double v) -> Status {
    if (v < info.min || v > info.max) {
      return {StatusCode::kInvalidArgument,
              "parameter '" + std::string(info.name) + "' = " +
                  std::to_string(v) + " out of range [" +
                  std::to_string(info.min) + ", " + std::to_string(info.max) +
                  "]"};
    }
    return Status::Ok();
  };
  switch (info.kind) {
    case ParamKind::Int: {
      Result<std::uint64_t> parsed = parse_u64(value);
      if (!parsed.ok()) return parsed.status();
      return range_check(static_cast<double>(*parsed));
    }
    case ParamKind::Double: {
      Result<double> parsed = parse_param_double(value);
      if (!parsed.ok()) return parsed.status();
      return range_check(*parsed);
    }
    case ParamKind::Bool:
      return parse_param_bool(value).status();
    case ParamKind::Node:
      return parse_param_node(value).status();
    case ParamKind::Mode:
      return parse_param_mode(value).status();
    case ParamKind::Sessions:
      return parse_param_sessions(value).status();
  }
  return Status::Ok();
}

}  // namespace xfa
