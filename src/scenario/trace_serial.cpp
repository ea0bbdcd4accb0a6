#include "scenario/trace_serial.h"

#include "common/serial.h"

namespace xfa {

Status append_scenario_payload(std::string& out,
                               const ScenarioResult& result) {
  const std::size_t columns =
      result.trace.rows.empty() ? 0 : result.trace.rows.front().size();
  for (const auto& row : result.trace.rows)
    if (row.size() != columns)
      return {StatusCode::kInvalidArgument, "ragged trace rows"};

  SerialWriter writer(out);
  writer.doubles(result.trace.times);
  writer.size(result.trace.rows.size());
  writer.size(columns);
  for (const auto& row : result.trace.rows)
    writer.bytes(row.data(), columns * sizeof(double));
  const ScenarioSummary& summary = result.summary;
  writer.pod(summary.data_originated);
  writer.pod(summary.data_delivered);
  writer.pod(summary.packet_delivery_ratio);
  writer.pod(summary.scheduler_events);
  writer.pod(summary.channel);
  writer.pod(summary.monitor_routing);
  writer.pod(summary.monitor_audit_packets);
  writer.pod(summary.monitor_audit_route_events);
  return Status::Ok();
}

bool parse_scenario_payload(std::string_view payload, ScenarioResult& result) {
  SerialReader reader(payload);
  if (!reader.read_doubles(result.trace.times)) return false;
  std::size_t rows = 0, columns = 0;
  if (!reader.read_size(rows) || !reader.read_size(columns)) return false;
  // Each row carries columns*8 bytes; empty rows still must not exceed the
  // payload itself, bounding resize() under any hostile count.
  if (columns > reader.remaining() / sizeof(double)) return false;
  if (columns == 0 ? rows > reader.remaining()
                   : rows > reader.remaining() / (columns * sizeof(double)))
    return false;
  result.trace.rows.resize(rows);
  for (auto& row : result.trace.rows) {
    row.resize(columns);
    if (!reader.read_bytes(row.data(), columns * sizeof(double))) return false;
  }
  ScenarioSummary& summary = result.summary;
  if (!reader.read_pod(summary.data_originated) ||
      !reader.read_pod(summary.data_delivered) ||
      !reader.read_pod(summary.packet_delivery_ratio) ||
      !reader.read_pod(summary.scheduler_events) ||
      !reader.read_pod(summary.channel) ||
      !reader.read_pod(summary.monitor_routing) ||
      !reader.read_pod(summary.monitor_audit_packets) ||
      !reader.read_pod(summary.monitor_audit_route_events))
    return false;
  return reader.remaining() == 0;  // trailing bytes => damaged artifact
}

}  // namespace xfa
