#include "src/pql/provdb_source.h"

#include <algorithm>
#include <cctype>

#include "src/util/strings.h"

namespace pass::pql {

std::string RootSetTypeName(const std::string& name) {
  if (name == "process") {
    return "PROC";
  }
  std::string type = name;
  for (char& c : type) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return type;
}

std::vector<Node> RootMembers(const waldo::ProvDb& db,
                              const std::string& name) {
  // Root sets are TYPE-based: file -> FILE, process -> PROC, etc.
  return name == "object" ? db.LatestOfAll()
                          : db.LatestOfType(RootSetTypeName(name));
}

std::vector<ValueSet> AttributeSets(const waldo::ProvDb& db,
                                    const std::vector<Node>& nodes,
                                    const std::string& attr) {
  std::vector<ValueSet> out(nodes.size());
  std::string want = attr;
  for (char& c : want) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (want == "pnode" || want == "version") {
    for (size_t i = 0; i < nodes.size(); ++i) {
      out[i].push_back(Value(static_cast<int64_t>(
          want == "pnode" ? nodes[i].pnode : nodes[i].version)));
    }
    return out;
  }
  // Object-level attributes: union across versions (NAME/TYPE are recorded
  // once per object, ancestry is per version).
  std::vector<core::PnodeId> pnodes;
  pnodes.reserve(nodes.size());
  for (const Node& node : nodes) {
    pnodes.push_back(node.pnode);
  }
  std::vector<std::vector<const core::Value*>> rows =
      db.AttributeValuesMany(pnodes, want);
  for (size_t i = 0; i < nodes.size(); ++i) {
    ValueSet& values = out[i];
    values.reserve(rows[i].size());
    for (const core::Value* value : rows[i]) {
      values.push_back(Value::FromRecordValue(*value));
    }
    Normalize(&values);
  }
  return out;
}

std::string NodeLabelOf(const waldo::ProvDb& db, const Node& node) {
  std::string label = db.NameOf(node.pnode);
  if (label.empty()) {
    ValueSet types = AttributeSets(db, {node}, "type").front();
    label = types.empty() ? "?" : types.front().ToString();
  }
  return StrFormat("%s [%s]", label.c_str(), node.ToString().c_str());
}

std::vector<Node> ProvDbSource::RootSet(const std::string& name) const {
  return RootMembers(*db_, name);
}

std::vector<ValueSet> ProvDbSource::AttributeMany(
    const std::vector<Node>& nodes, const std::string& attr) const {
  return AttributeSets(*db_, nodes, attr);
}

std::vector<std::vector<Node>> ProvDbSource::FollowMany(
    const std::vector<Node>& nodes, const std::string& link,
    bool inverse) const {
  if (link != "input") {
    return std::vector<std::vector<Node>>(nodes.size());
  }
  return inverse ? db_->OutputsMany(nodes) : db_->InputsMany(nodes);
}

bool ProvDbSource::IsLink(const std::string& name) const {
  return name == "input";
}

std::string ProvDbSource::NodeLabel(const Node& node) const {
  return NodeLabelOf(*db_, node);
}

}  // namespace pass::pql
