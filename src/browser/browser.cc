#include "src/browser/browser.h"

namespace pass::browser {

void SimWeb::AddPage(const std::string& url, std::string content,
                     std::vector<std::string> links) {
  WebPage& page = pages_[url];
  page.content = std::move(content);
  page.links = std::move(links);
}

void SimWeb::AddRedirect(const std::string& url, const std::string& target) {
  pages_[url].redirect_to = target;
}

void SimWeb::AddDownload(const std::string& url, std::string bytes) {
  WebPage& page = pages_[url];
  page.content = std::move(bytes);
  page.downloadable = true;
}

void SimWeb::ReplaceContent(const std::string& url, std::string bytes) {
  auto it = pages_.find(url);
  if (it != pages_.end()) {
    it->second.content = std::move(bytes);
  }
}

Result<const WebPage*> SimWeb::Fetch(const std::string& url) const {
  auto it = pages_.find(url);
  if (it == pages_.end()) {
    return NotFound("404: " + url);
  }
  return &it->second;
}

Browser::Browser(os::Kernel* kernel, os::Pid pid, core::LibPass lib,
                 SimWeb* web, sim::Network* network)
    : kernel_(kernel), pid_(pid), lib_(lib), web_(web), network_(network) {}

void Browser::ChargeFetch(size_t bytes) {
  if (network_ != nullptr) {
    network_->RoundTrip(256, bytes);
  }
}

Status Browser::OpenSession() {
  PASS_ASSIGN_OR_RETURN(core::PassObject session, lib_.Mkobj());
  PASS_RETURN_IF_ERROR(
      lib_.Write(session, {core::Record::Type("SESSION")}));
  session_ = session;
  return Status::Ok();
}

Status Browser::RestoreSession(core::PnodeId pnode, core::Version version) {
  PASS_ASSIGN_OR_RETURN(core::PassObject session,
                        lib_.Revive(pnode, version));
  session_ = session;
  return Status::Ok();
}

Result<core::ObjectRef> Browser::SessionRef() const {
  if (!session_.has_value()) {
    return Unavailable("no open session");
  }
  return lib_.Ref(*session_);
}

Result<std::string> Browser::Visit(const std::string& url) {
  if (!session_.has_value()) {
    PASS_RETURN_IF_ERROR(OpenSession());
  }
  std::string at = url;
  for (int hops = 0; hops < 8; ++hops) {
    PASS_ASSIGN_OR_RETURN(const WebPage* page, web_->Fetch(at));
    ChargeFetch(page->content.size());
    history_.push_back(at);
    // VISITED_URL: dependency between the session and the URL (§6.3),
    // recording the sequence of pages leading to any later download.
    PASS_RETURN_IF_ERROR(lib_.Write(
        *session_, {core::Record::Of(core::Attr::kVisitedUrl, at)}));
    if (!page->redirect_to.empty()) {
      ++browser_stats_.redirects_followed;
      at = page->redirect_to;
      continue;
    }
    current_url_ = at;
    return page->content;
  }
  return Unavailable("redirect loop at " + url);
}

Status Browser::Download(const std::string& url,
                         const std::string& local_path) {
  if (!session_.has_value()) {
    PASS_RETURN_IF_ERROR(OpenSession());
  }
  PASS_ASSIGN_OR_RETURN(const WebPage* page, web_->Fetch(url));
  ChargeFetch(page->content.size());

  PASS_ASSIGN_OR_RETURN(core::ObjectRef session_ref, lib_.Ref(*session_));
  // The three download records of §6.3 plus the data, in one pass_write.
  std::vector<core::Record> records{
      core::Record::Input(session_ref),
      core::Record::Of(core::Attr::kFileUrl, url),
      core::Record::Of(core::Attr::kCurrentUrl, current_url_),
  };
  PASS_ASSIGN_OR_RETURN(
      os::Fd fd,
      kernel_->Open(pid_, local_path,
                    os::kOpenWrite | os::kOpenCreate | os::kOpenTrunc));
  auto written = lib_.WriteFile(fd, page->content, std::move(records));
  if (!written.ok()) {
    (void)kernel_->Close(pid_, fd);
    return written.status();
  }
  return kernel_->Close(pid_, fd);
}

Status Browser::SyncSession() {
  if (!session_.has_value()) {
    return Unavailable("no open session");
  }
  return lib_.Sync(*session_);
}

}  // namespace pass::browser
